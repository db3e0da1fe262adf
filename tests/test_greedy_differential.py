"""realize checked by the properties of its stub pairing, max_run
checked against the plain rescanning version in greedy_reference, on
realize's graphs, the reference's greedy realizations and rewirings, and
construct_worst_case against the reference's chain-based witness."""

import random

import pytest
from hypothesis import assume, example, given, settings
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
from greedymax.multiset import MAX_DEGREE, make_degree_sequence


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


def assert_realizes(D, G):
    """G is loopless with the degrees of D, nonincreasing by label, and its
    edges are sorted, distinct and at most one per positive degree."""
    keys = [key for key, _ in G.edges]
    assert all(u < v for u, v in keys)
    assert G.degrees() == sorted(D.values(), reverse=True)
    assert keys == sorted(set(keys))
    assert len(keys) <= sum(1 for d in D.values() if d)


def assert_matches_reference(D, rng):
    G = realize(D)
    assert_realizes(D, G)
    greedy = ref.realize(D)
    for H in (greedy, random_rewiring(greedy, 3 * len(greedy.edges), rng), G):
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


def test_realize_on_huge_degrees():
    rng = random.Random(11)
    for _ in range(300):
        vals = [rng.randint(0, MAX_DEGREE) for _ in range(rng.randint(1, 14))]
        vals.sort()
        vals[-1] = min(vals[-1], sum(vals[:-1]))  # the top fits the rest
        if sum(vals) % 2:
            vals[-1] -= 1
        D = make_degree_sequence(vals)
        assert_realizes(D, realize(D))
    for vals in ([MAX_DEGREE - 1] * 2, [MAX_DEGREE] * 2 + [1, 1],
                 [MAX_DEGREE] * 14):
        D = make_degree_sequence(vals)
        assert_realizes(D, realize(D))


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


@settings(max_examples=300, deadline=None)
@given(
    small=st.lists(st.integers(0, 12), max_size=36),
    big=st.one_of(st.just([]), st.lists(st.integers(0, 40), min_size=2, max_size=3)),
    k=st.integers(1, 4),
)
# a level above a last term that reduces by the degenerate branch:
# {2,2,2} at k = 1 reduces to {1,1}, which drops a 1 and leaves a sum of 1,
# below m + 2k
@example(small=[2, 2, 2], big=[], k=1)
@example(small=[0, 1, 1], big=[0, 0, 2], k=1)
def test_construct_matches_the_reference(small, big, k):
    # orders up to 40, with zeros and up to three degrees near MAX_DEGREE
    vals = small + [MAX_DEGREE - x for x in big]
    if sum(vals) % 2:
        vals.append(1)
    assume(vals)
    D = make_degree_sequence(vals)
    assume(D.is_graphical())
    assert construct_worst_case(D, k) == ref.construct_worst_case(D, k)
