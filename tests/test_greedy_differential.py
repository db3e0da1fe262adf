"""realize and max_run on the degree index against the plain rescanning
versions in greedy_reference."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import greedy_reference as ref
from conftest import graphical_sequences, random_graphical
from greedymax.graphs import (
    construct_worst_case,
    make_scripted_chooser,
    max_run,
    random_rewiring,
    realize,
)
from greedymax.multiset import make_degree_sequence


def highest_index_chooser(candidates):
    # the last entry, so a candidate list out of ascending order shows
    return candidates[-1]


def recording_chooser(rng, script):
    """Random legal choices, appended to script."""
    def choose(candidates):
        v = rng.choice(candidates)
        script.append(v)
        return v
    return choose


def assert_runs_match(G, k, rng):
    for chooser in (None, highest_index_chooser):
        assert max_run(G, k, chooser) == ref.max_run(G, k, chooser)
    script: list[int] = []
    expected = ref.max_run(G, k, recording_chooser(rng, script))
    assert max_run(G, k, make_scripted_chooser(script)) == expected


def assert_matches_reference(D, rng):
    G = realize(D)
    assert G.edges == ref.realize(D).edges
    for H in (G, random_rewiring(G, 3 * len(G.edges), rng)):
        for k in (1, 2, 3, 4):
            assert_runs_match(H, k, rng)


def test_all_small_sequences():
    rng = random.Random(5)
    for D in graphical_sequences(6, 14):
        assert_matches_reference(D, rng)


def test_random_larger_sequences():
    rng = random.Random(7)
    for _ in range(60):
        D = random_graphical(rng, max_order=40, max_sum=200)
        assert_matches_reference(D, rng)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_witness_script_replays_identically(k):
    rng = random.Random(k)
    for _ in range(20):
        D = random_graphical(rng, max_order=30, max_sum=120)
        G, script = construct_worst_case(D, k)
        assert max_run(G, k, make_scripted_chooser(script)) == ref.max_run(
            G, k, make_scripted_chooser(script)
        )


@settings(max_examples=150, deadline=None)
@given(
    vals=st.lists(st.integers(0, 12), min_size=1, max_size=14),
    seed=st.integers(0, 2**16),
)
def test_hypothesis_sequences(vals, seed):
    if sum(vals) % 2:
        vals[0] += 1
    D = make_degree_sequence(vals)
    assume(D.is_graphical())
    assert_matches_reference(D, random.Random(seed))
