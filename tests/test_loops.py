from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_reference as ref
from greedymax.errors import InputError, LimitError
from greedymax.graphs import Multigraph, degree_sequence_of
from greedymax.loops import (
    alpha_k_bruteforce,
    alpha_k_min_loops,
    construct_extremal_loop_multigraph,
    enumerate_loop_realizations,
)
from greedymax.multiset import make_degree_sequence


def test_alpha_min_single_edge():
    assert alpha_k_min_loops(make_degree_sequence([1, 1]), 1) == 1


def test_alpha_min_all_loops_even_k():
    assert alpha_k_min_loops(make_degree_sequence([2, 2, 2]), 2) == 0


def test_alpha_min_regular_odd_k():
    assert alpha_k_min_loops(make_degree_sequence([3, 3, 3, 3]), 3) == 2


def test_alpha_min_rejects_odd_sum():
    with pytest.raises(InputError):
        alpha_k_min_loops(make_degree_sequence([1, 2]), 1)


def test_alpha_min_zero_degree_remark():
    for k in (1, 2, 3):
        for vals in ([1, 1], [2, 2, 2], [3, 3, 3, 3]):
            D = make_degree_sequence(vals)
            assert (
                alpha_k_min_loops(make_degree_sequence(vals + [0]), k)
                == alpha_k_min_loops(D, k) + 1
            )


def test_bruteforce_edgeless():
    G = Multigraph.from_edges(5, [], loops=True)
    assert alpha_k_bruteforce(G, 1) == 5
    assert alpha_k_bruteforce(G, 4) == 5


def test_bruteforce_single_loop():
    G = Multigraph.from_edges(1, [(0, 0, 1)], loops=True)
    assert alpha_k_bruteforce(G, 2) == 0
    assert alpha_k_bruteforce(G, 3) == 1


def test_bruteforce_triple_edge():
    G = Multigraph.from_edges(2, [(0, 1, 3)], loops=True)
    assert alpha_k_bruteforce(G, 1) == 1


def test_bruteforce_guard():
    G = Multigraph.from_edges(15, [], loops=True)
    with pytest.raises(LimitError):
        alpha_k_bruteforce(G, 1)


def test_enumerate_single_edge():
    outs = list(enumerate_loop_realizations(make_degree_sequence([1, 1])))
    assert len(outs) == 1


def test_enumerate_single_loop():
    outs = list(enumerate_loop_realizations(make_degree_sequence([2])))
    assert len(outs) == 1
    assert outs[0].edges == ((0, 0, 1),)


def test_enumerate_two_twos():
    outs = list(enumerate_loop_realizations(make_degree_sequence([2, 2])))
    assert len(outs) == 2  # double edge, or two loops


def test_enumerate_degrees_match():
    D = make_degree_sequence([1, 2, 3])
    for G in enumerate_loop_realizations(D):
        assert degree_sequence_of(G) == D


def test_enumerate_guard():
    with pytest.raises(LimitError, match=r"^order 7 exceeds guard 6$"):
        list(enumerate_loop_realizations(make_degree_sequence([1] * 7)))
    with pytest.raises(LimitError, match=r"^degree sum 28 exceeds guard 26$"):
        list(enumerate_loop_realizations(make_degree_sequence([5, 5, 5, 5, 4, 4])))


# every D of order 0..5 with degrees 0..5 and sum <= 16 (odd sums too,
# which have no realization), and three of order 6
SMALL_SEQUENCES = [
    make_degree_sequence(list(vals))
    for n in range(6)
    for vals in combinations_with_replacement(range(6), n)
    if sum(vals) <= 16
] + [
    make_degree_sequence(vals)
    for vals in ([2] * 6, [1, 1, 2, 2, 3, 3], [1, 1, 2, 2, 5, 5])
]


def test_oracles_match_the_reference_on_every_small_sequence():
    """The same graphs in the same order as the pair-by-pair recursion, and
    the same k-independence numbers as the set search, k = 1..5."""
    for D in SMALL_SEQUENCES:
        realizations = list(enumerate_loop_realizations(D))
        assert realizations == list(ref.enumerate_loop_realizations(D)), D
        for G in realizations:
            for k in range(1, 6):
                assert alpha_k_bruteforce(G, k) == ref.alpha_k_bruteforce(G, k), (G, k)


@st.composite
def loop_multigraphs(draw):
    """Order 0..10; edges only among the first ``live`` vertices, so the rest
    are isolated, and loops of weight 2, 4 or 6 on either side of k."""
    n = draw(st.integers(0, 10))
    live = draw(st.integers(0, n))
    edges = []
    if live:
        vertex = st.integers(0, live - 1)
        for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=2 * live)):
            edges.append((u, v, draw(st.integers(1, 3))))
    return Multigraph.from_edges(n, edges, loops=True)


@settings(max_examples=60, deadline=None)
@given(loop_multigraphs(), st.integers(1, 5))
def test_bruteforce_matches_the_set_search_on_random_graphs(G, k):
    assert alpha_k_bruteforce(G, k) == ref.alpha_k_bruteforce(G, k)


def test_construct_single_even_vertex():
    G = construct_extremal_loop_multigraph(make_degree_sequence([2]), 2)
    assert G.edges == ((0, 0, 1),)


def test_construct_even_k_example():
    D = make_degree_sequence([1, 1, 4])
    G = construct_extremal_loop_multigraph(D, 2)
    assert degree_sequence_of(G) == D
    assert alpha_k_bruteforce(G, 2) == 2 == alpha_k_min_loops(D, 2)


def test_construct_odd_k_regular():
    D = make_degree_sequence([3, 3, 3, 3])
    G = construct_extremal_loop_multigraph(D, 3)
    assert degree_sequence_of(G) == D
    assert alpha_k_bruteforce(G, 3) == 2


def test_construct_rejects_bad_input():
    with pytest.raises(InputError):
        construct_extremal_loop_multigraph(make_degree_sequence([0, 2]), 2)
    with pytest.raises(InputError):
        construct_extremal_loop_multigraph(make_degree_sequence([1, 2]), 2)
    with pytest.raises(InputError):
        construct_extremal_loop_multigraph(make_degree_sequence([]), 2)


def test_loop_json_round_trip():
    G = Multigraph.from_edges(3, [(0, 0, 2), (1, 2, 1)], loops=True)
    assert Multigraph.from_json(G.to_json(), loops=True) == G
    assert Multigraph.from_edges(G.n, G.edges, loops=True) == G
