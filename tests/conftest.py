"""Shared corpus generators for the test suite."""

import random

import pytest

from greedymax.multiset import DegreeSequence


def iter_partitions(total, parts, bound):
    """Nonincreasing integer tuples of the given length and sum, parts <= bound."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(total, bound), -1, -1):
        if first * parts < total:
            break
        for rest in iter_partitions(total - first, parts - 1, first):
            yield (first,) + rest


def graphical_sequences(max_order, max_sum):
    """Every graphical degree sequence with 1 <= order <= max_order and
    sum <= max_sum (even sum, sum >= twice the maximum)."""
    out = []
    for n in range(1, max_order + 1):
        for s in range(0, max_sum + 1, 2):
            for part in iter_partitions(s, n, s):
                if s >= 2 * (part[0] if part else 0):
                    out.append(DegreeSequence.from_values(part))
    return out


def random_graphical(rng: random.Random, max_order=7, max_sum=18) -> DegreeSequence:
    """A random graphical sequence within the given order and sum caps."""
    while True:
        n = rng.randint(1, max_order)
        vals = [rng.randint(0, 7) for _ in range(n)]
        if sum(vals) % 2 == 1:
            i = rng.randrange(n)
            if vals[i] > 0 and rng.random() < 0.5:
                vals[i] -= 1
            else:
                vals[i] += 1
        s, m = sum(vals), max(vals)
        if s <= max_sum and s >= 2 * m:
            return DegreeSequence.from_values(vals)


def schedule_states(trace) -> tuple[DegreeSequence, ...]:
    """A_0, ..., A_s of a non-degenerate ``DecrementTrace``, rebuilt from
    the input and the schedule: A_0 is the input without one copy of m, and
    A_i is A_{i-1} with one a_i lowered to a_i - 1."""
    states = [trace.input.without_one(trace.m)]
    for x in trace.a:
        states.append(states[-1].replace_one(x, x - 1))
    return tuple(states)


@pytest.fixture
def rng():
    return random.Random(0)
