"""The two exhaustive oracles checked against the plain versions in
oracle_reference: ``max_worst_case`` (bitmask components) against the
search over whole alive sets, ``precedes`` and ``applicable_steps``
(multiplicity vectors) against the search over ``DegreeSequence`` states."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_reference as ref
from greedymax import graphs
from greedymax.errors import LimitError
from greedymax.graphs import (
    Multigraph,
    construct_worst_case,
    make_scripted_chooser,
    max_run,
    max_worst_case,
)
from greedymax.multiset import make_degree_sequence
from greedymax.orderlab import applicable_steps, precedes


@st.composite
def multigraphs(draw, max_order=9):
    """Loopless multigraphs of order 1..max_order with multiplicities 1..3:
    few edges leave isolated vertices and several components."""
    n = draw(st.integers(1, max_order))
    # u and a distinct v = u + shift mod n
    pair = st.tuples(st.integers(0, n - 1), st.integers(1, max(n - 1, 1)), st.integers(1, 3))
    pairs = pair.map(lambda e: (e[0], (e[0] + e[1]) % n, e[2]))
    edges = draw(st.lists(pairs, max_size=2 * n if n > 1 else 0))
    return Multigraph.from_edges(n, edges)


def assert_worst_case(G, k):
    size, script = max_worst_case(G, k)
    assert size == ref.max_worst_case(G, k)[0], (G, k)
    survivors, _ = max_run(G, k, make_scripted_chooser(script))
    assert len(survivors) == size, (G, k, script)


@settings(max_examples=150, deadline=None)
@given(G=multigraphs(), k=st.integers(1, 3))
def test_worst_case_matches_the_reference(G, k):
    assert_worst_case(G, k)


@settings(max_examples=60, deadline=None)
@given(parts=st.lists(multigraphs(max_order=4), min_size=2, max_size=3), k=st.integers(1, 3))
def test_worst_case_on_disjoint_unions(parts, k):
    # the minimum over a disjoint union is the sum of the minima, and the
    # merged script replays on the union
    edges, n = [], 0
    for part in parts:
        edges += [(u + n, v + n, m) for u, v, m in part.edges]
        n += part.n
    assert_worst_case(Multigraph.from_edges(n, edges), k)


def test_worst_case_script_merges_by_degree():
    # a triangle of double edges beside a single edge: the triangle's
    # deletions at degree 4 come before the edge's at degree 1
    G = Multigraph.from_edges(5, [(0, 1, 2), (1, 2, 2), (0, 2, 2), (3, 4, 1)])
    size, script = max_worst_case(G, 1)
    assert size == 2 and len(set(script[:2]) & {0, 1, 2}) == 2 and script[2] in (3, 4)
    assert_worst_case(G, 1)


def test_worst_case_guards(monkeypatch):
    # a connected component above the order guard is refused before any search
    path = Multigraph.from_edges(65, [(i, i + 1, 1) for i in range(64)])
    with pytest.raises(LimitError, match=r"^connected component order 65 exceeds guard 64$"):
        max_worst_case(path, 1)
    # a component that is trivial at k is never searched
    assert max_worst_case(path, 3) == (65, [])
    monkeypatch.setattr(graphs, "WORST_CASE_MAX_STATES", 0)
    assert max_worst_case(Multigraph.from_edges(100_000, [(0, 1, 1)]), 2) == (100_000, [])
    # the budget counts the states of every component: the witness of
    # [4]*14 needs 830 at k = 1, and two copies of it 1,660
    G, _ = construct_worst_case(make_degree_sequence([4] * 14), 1)
    twice = Multigraph.from_edges(28, [(u + s, v + s, m) for s in (0, 14) for u, v, m in G.edges])
    monkeypatch.setattr(graphs, "WORST_CASE_MAX_STATES", 1000)
    assert max_worst_case(G, 1)[0] == 3
    with pytest.raises(LimitError, match=r"^worst-case search in a 14-vertex component: "
                                         r"component state 1001 exceeds guard 1000$"):
        max_worst_case(twice, 1)


@settings(max_examples=150, deadline=None)
@given(
    d=st.lists(st.integers(0, 8), min_size=1, max_size=7),
    e=st.lists(st.integers(0, 8), min_size=1, max_size=7),
    k=st.integers(1, 4),
    walk=st.lists(st.integers(0, 10**6), max_size=4),
)
def test_precedes_matches_the_reference(d, e, k, walk):
    # D is drawn, or E after the steps that ``walk`` picks: reachable pairs
    # and unreachable ones, up to order 7 and sum 26
    E = make_degree_sequence(e)
    D = make_degree_sequence((d * len(e))[: len(e)])
    if walk:
        D = E
        for pick in walk:
            steps = list(ref.applicable_steps(D, k))
            D = steps[pick % len(steps)][1] if steps else D
    if D.total > 26:
        return
    assert precedes(D, E, k) == ref.precedes(D, E, k), (D, E, k)


@settings(max_examples=100, deadline=None)
@given(e=st.lists(st.integers(0, 12), min_size=1, max_size=8), k=st.integers(1, 14))
def test_steps_match_the_reference(e, k):
    E = make_degree_sequence(e)
    assert list(applicable_steps(E, k)) == list(ref.applicable_steps(E, k))


def test_precedes_at_the_guard_edges():
    # order 7 and sum 26, reached in two steps, and the pins of the CLI
    D = make_degree_sequence([2, 3, 3, 4, 4, 5, 5])
    E = make_degree_sequence([1, 2, 3, 4, 4, 5, 5])
    for k in (1, 2, 3, 6):
        assert precedes(D, E, k) == ref.precedes(D, E, k)
    D = make_degree_sequence([1, 2, 3, 4, 4, 5, 7])
    E = make_degree_sequence([1, 2, 2, 4, 4, 5, 6])
    assert precedes(D, E, 3) is ref.precedes(D, E, 3) is True
