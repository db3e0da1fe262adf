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
from greedymax.errors import InputError
from greedymax.graphs import (
    Multigraph,
    construct_worst_case,
    make_scripted_chooser,
    max_run,
    random_rewiring,
    realize,
)
from greedymax.multiset import MAX_DEGREE, make_degree_sequence


def outcome(run, G, k, script):
    try:
        return run(G, k, script)
    except InputError as exc:
        return str(exc)


def assert_runs_match(G, k, rng):
    """The lowest-index run, then the reference's highest-index and random
    runs replayed as scripts: whole, truncated and with a label added."""
    assert max_run(G, k) == ref.max_run(G, k)
    for pick in (max, rng.choice):
        expected = ref.max_run(G, k, pick=pick)
        script = [v for v, _ in expected[1]]
        assert max_run(G, k, make_scripted_chooser(script)) == expected
        for edited in (script[:-1], script + [rng.randint(-1, G.n)]):
            assert outcome(max_run, G, k, edited) == outcome(ref.max_run, G, k, edited)


def assert_realizes(D, G):
    """G is loopless with the degrees of D, nonincreasing by label, and its
    edges are sorted, distinct and at most one per positive degree."""
    keys = [(u, v) for u, v, _ in G.edges]
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


def test_runs_match_on_large_top_levels():
    # hundreds of vertices share the top degree, so the levels hold long
    # candidate lists and empty and refill below the top over many deletions
    rng = random.Random(13)
    matching = Multigraph.from_edges(400, [(2 * i, 2 * i + 1, 1) for i in range(200)])
    assert_runs_match(matching, 1, rng)
    sixes = realize(make_degree_sequence([6] * 300))
    for H in (sixes, random_rewiring(sixes, 3 * len(sixes.edges), rng)):
        for k in (1, 2, 3, 4):
            assert_runs_match(H, k, rng)
    for vals in ([1] * 1000, [3] * 500):
        for k in (1, 2):
            G, script = construct_worst_case(make_degree_sequence(vals), k)
            assert_runs_match(G, k, rng)
            assert max_run(G, k, make_scripted_chooser(script)) == ref.max_run(
                G, k, make_scripted_chooser(script)
            )


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
    G, script = construct_worst_case(D, k)
    assert (G, script) == ref.construct_worst_case(D, k)
    assert Multigraph.from_edges(G.n, G.edges) == G
