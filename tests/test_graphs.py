import json
import random
import time
import tracemalloc

import pytest

import greedy_reference as ref
from conftest import graphical_sequences, random_graphical
from greedymax.cli import main
from greedymax.errors import InputError, LimitError
from greedymax.graphs import (
    Multigraph,
    construct_worst_case,
    degree_sequence_of,
    make_scripted_chooser,
    max_run,
    max_worst_case,
    random_rewiring,
    realize,
)
from greedymax.loops import enumerate_loop_realizations
from greedymax.multiset import MAX_DEGREE_SUM, make_degree_sequence
from greedymax.omega import b

D_EX = make_degree_sequence([1, 2, 2, 4, 4, 5, 6])


def test_degree_sequence_single_edge():
    G = Multigraph.from_edges(2, [(0, 1, 1)])
    assert degree_sequence_of(G) == make_degree_sequence([1, 1])


def test_degree_sequence_triple_edge():
    G = Multigraph.from_edges(2, [(0, 1, 3)])
    assert degree_sequence_of(G) == make_degree_sequence([3, 3])


def test_degree_sequence_of_witness():
    G, _ = construct_worst_case(D_EX, 3)
    assert degree_sequence_of(G) == D_EX


@pytest.mark.parametrize("n, edges, loops, error, message", [
    pytest.param("3", [], False, InputError, "vertex count '3' must be an integer",
                 id="string-n"),
    pytest.param(True, [], False, InputError, "vertex count True must be an integer",
                 id="bool-n"),
    pytest.param(-1, [], False, InputError, "vertex count -1 must be nonnegative",
                 id="negative-n"),
    pytest.param(MAX_DEGREE_SUM + 1, [], False, LimitError,
                 f"vertex count {MAX_DEGREE_SUM + 1} exceeds guard {MAX_DEGREE_SUM}",
                 id="n-over-guard"),
    pytest.param(3, [(0, 1)], False, InputError,
                 "edge item (0, 1) must be [u, v, multiplicity]", id="short-item"),
    pytest.param(3, [[0, 1, 1, 1]], False, InputError,
                 "edge item [0, 1, 1, 1] must be [u, v, multiplicity]", id="long-item"),
    pytest.param(3, [(0, 1.0, 1)], False, InputError,
                 "edge (0, 1.0, 1): vertices and multiplicity must be integers",
                 id="float-vertex"),
    pytest.param(3, [(0, 1, True)], False, InputError,
                 "edge (0, 1, True): vertices and multiplicity must be integers",
                 id="bool-multiplicity"),
    pytest.param(3, [(0, 0, 1)], False, InputError, "loops are not allowed", id="loop"),
    # the loop check comes first
    pytest.param(3, [(7, 7, 0)], False, InputError, "loops are not allowed",
                 id="loop-out-of-range"),
    pytest.param(3, [(7, 7, 1)], True, InputError, "vertex out of range in edge (7,7)",
                 id="allowed-loop-out-of-range"),
    # the edge is named as given, not as its sorted key
    pytest.param(3, [(5, 1, 1)], False, InputError, "vertex out of range in edge (5,1)",
                 id="out-of-range-reversed"),
    pytest.param(3, [(1, 3, 1)], False, InputError, "vertex out of range in edge (1,3)",
                 id="out-of-range"),
    pytest.param(3, [(2, -1, 1)], False, InputError, "vertex out of range in edge (2,-1)",
                 id="negative-vertex"),
    # the range check comes before the multiplicity check
    pytest.param(3, [(0, 5, 0)], False, InputError, "vertex out of range in edge (0,5)",
                 id="out-of-range-zero-multiplicity"),
    pytest.param(3, [(0, 1, 0)], False, InputError, "edge multiplicity must be positive",
                 id="zero-multiplicity"),
    pytest.param(3, [(0, 1, 2), (1, 0, -1)], False, InputError,
                 "edge multiplicity must be positive", id="negative-multiplicity"),
])
def test_from_edges_error_messages(n, edges, loops, error, message):
    with pytest.raises(error) as info:
        Multigraph.from_edges(n, edges, loops)
    assert str(info.value) == message


def test_from_edges_sums_reversed_and_repeated_edges():
    G = Multigraph.from_edges(3, [(2, 0, 1), (1, 0, 2), (0, 2, 2), [0, 1, 1], (2, 1, 4)])
    assert G.edges == ((0, 1, 3), (0, 2, 3), (1, 2, 4))
    H = Multigraph.from_edges(2, [(1, 1, 1), (1, 0, 1), (1, 1, 2)], loops=True)
    assert H.edges == ((0, 1, 1), (1, 1, 3))


def test_realize_simple_cases():
    assert realize(make_degree_sequence([1, 1])).edges == ((0, 1, 1),)
    assert realize(make_degree_sequence([2, 2])).edges == ((0, 1, 2),)
    assert realize(make_degree_sequence([0, 0, 0])).edges == ()


def test_realize_rejects_non_graphical():
    with pytest.raises(InputError):
        realize(make_degree_sequence([3]))


def test_realize_random(rng):
    for _ in range(100):
        D = random_graphical(rng)
        assert degree_sequence_of(realize(D)) == D


def test_max_run_trivial_graph():
    G = Multigraph.from_edges(3, [(0, 1, 1)])
    survivors, log = max_run(G, 2)
    assert survivors == [0, 1, 2] and log == []


def test_max_run_triple_edge():
    G = Multigraph.from_edges(2, [(0, 1, 3)])
    survivors, log = max_run(G, 1)
    assert len(survivors) == 1
    assert log[0][1] == 3


def test_max_run_worst_case_witness():
    G, script = construct_worst_case(D_EX, 3)
    survivors, log = max_run(G, 3, make_scripted_chooser(script))
    assert len(survivors) == 4
    assert [v for v, _ in log] == script


def test_max_run_deletions_have_max_degree():
    G, script = construct_worst_case(D_EX, 3)
    _, log = max_run(G, 3, make_scripted_chooser(script))
    for v, d in log:
        assert d >= 3


def test_max_run_maximality(rng):
    # adding any deleted vertex back breaks the degree bound
    for _ in range(30):
        D = random_graphical(rng, max_order=6, max_sum=14)
        G = realize(D)
        k = rng.choice([1, 2, 3])
        survivors, log = max_run(G, k)
        adj = G.adjacency()
        for v, _ in log:
            chosen = set(survivors) | {v}
            degs = {
                u: sum(m for w, m in (adj[u] or {}).items() if w in chosen)
                for u in chosen
            }
            assert max(degs.values()) >= k


def test_scripted_chooser_rejects_illegal_vertex():
    G = Multigraph.from_edges(2, [(0, 1, 3)])
    with pytest.raises(InputError):
        max_run(G, 1, make_scripted_chooser([5]))


@pytest.mark.parametrize("v", [-1, 4, 2**40])
def test_scripted_label_out_of_range(v):
    # the top vertex n - 1 has the maximum degree, so a label that wrapped
    # around the degree list, as -1 would, names it
    G = Multigraph.from_edges(4, [(0, 3, 1), (1, 3, 1), (2, 3, 1)])
    refused = f"scripted vertex {v} is not of maximum degree"
    with pytest.raises(InputError) as exc:
        max_run(G, 1, make_scripted_chooser([v]))
    assert str(exc.value) == refused
    with pytest.raises(InputError) as exc:
        max_run(G, 1, make_scripted_chooser([]))
    assert str(exc.value) == "deletion script exhausted before the run finished"
    # deleting the top vertex ends the run, so v is left over
    with pytest.raises(InputError) as exc:
        max_run(G, 1, make_scripted_chooser([3, v]))
    assert str(exc.value) == "deletion script not used up: 1 left after the run finished"


def test_witness_replay_is_linear():
    # 2^16 ones at k = 1: every vertex is on the top level, where a replay
    # that scans the candidates at each deletion takes many seconds
    G, script = construct_worst_case(make_degree_sequence([1] * 2**16), 1)
    for replayed in (make_scripted_chooser(script), None):
        start = time.perf_counter()
        survivors, log = max_run(G, 1, replayed)
        assert time.perf_counter() - start < 1.0
        assert len(survivors) == len(log) == 2**15


def test_max_worst_case_trivial():
    G = Multigraph.from_edges(4, [(0, 1, 1)])
    size, script = max_worst_case(G, 2)
    assert size == 4 and script == []


def test_exhaustive_verify_memory_follows_the_edges(tmp_path, capsys):
    # 2^21 vertices and one edge: the adjacency has a list slot per vertex
    # (16 MiB) and two rows; a dict per vertex took over 150 MiB
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps({"n": 2**21, "edges": [[0, 1, 1]]}))
    tracemalloc.start()
    try:
        code = main(["verify", "--k", "1", "--graph", str(path), "--exhaustive"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().out.startswith("worst case over all runs: 2097151 ")
    assert peak < 2**21 * 16


def test_witness_memory_per_edge():
    # 350 vertices of degree 250 at k = 1: 43,750 edges, built as one list
    # of (u, v, m) triples and sorted on the lower end.  About 85 bytes an
    # edge at the peak: the bound has room for another Python version, but
    # not for a second tuple per edge or a list per vertex (about 137)
    D = make_degree_sequence([250] * 350)
    tracemalloc.start()
    try:
        G, _ = construct_worst_case(D, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(G.edges) == 43_750
    assert peak < 110 * len(G.edges)


def test_max_worst_case_bounds_for_example():
    for G in (realize(D_EX), construct_worst_case(D_EX, 3)[0]):
        size, script = max_worst_case(G, 3)
        assert size >= 4
        survivors, _ = max_run(G, 3, make_scripted_chooser(script))
        assert len(survivors) == size
    size, _ = max_worst_case(construct_worst_case(D_EX, 3)[0], 3)
    assert size == 4


def test_max_worst_case_guard():
    # a connected instance over the budget of component states: the witness
    # of [4]*28 needs more than 50,000 at k = 1, about a second of search
    G, _ = construct_worst_case(make_degree_sequence([4] * 28), 1)
    with pytest.raises(
        LimitError,
        match=r"^worst-case search in a 28-vertex component: "
              r"component state 50001 exceeds guard 50000$",
    ):
        max_worst_case(G, 1)


def test_b_is_the_minimum_over_every_loopless_realization():
    """The lower bound and its sharpness, over all labelled realizations:
    the worst run of MAX on the worst loopless multigraph with degree
    sequence D leaves exactly b(D, k) vertices.

    856 sequences (order <= 6, sum <= 18) and 15,900 loopless
    realizations, about 4 s.  The frontier: enumerate_loop_realizations
    refuses order 7, and sum <= 20 takes about 9 s (1,246 sequences,
    33,835 realizations)."""
    for D in graphical_sequences(6, 18):
        loopless = [
            G for G in enumerate_loop_realizations(D)
            if all(u != v for u, v, _ in G.edges)
        ]
        for k in (1, 2, 3):
            least = min(max_worst_case(G, k)[0] for G in loopless)
            assert least == b(D, k).b, (D, k)


def test_b_sampled_at_orders_10_to_16():
    """The theorem sampled past the exhaustive orders: on 300 random
    sequences of order 10..12 and 300 of order 13..16, degrees 0..6 and
    k = 1..3, the witness's exhaustive worst case is b(D, k) and a rewired
    realization's is at least b.  About 0.3 s in all; the largest search
    holds a few hundred component states."""
    rng = random.Random(16)
    for lo, hi in ((10, 12), (13, 16)):
        for _ in range(300):
            vals = sorted(rng.randint(0, 6) for _ in range(rng.randint(lo, hi)))
            vals[-1] = min(vals[-1], sum(vals[:-1]))  # graphical: max <= the rest
            vals[-1] -= sum(vals) % 2
            D, k = make_degree_sequence(vals), rng.randint(1, 3)
            bound = b(D, k).b
            G, _ = construct_worst_case(D, k)
            assert max_worst_case(G, k)[0] == bound, (D, k)
            H = random_rewiring(realize(D), 3 * sum(vals) // 2, rng)
            assert max_worst_case(H, k)[0] >= bound, (D, k, H)


def test_construct_worst_case_trivial_input():
    D = make_degree_sequence([1, 1, 0])
    G, script = construct_worst_case(D, 2)
    assert script == [] and degree_sequence_of(G) == D


def test_construct_worst_case_matches_b(rng):
    cases = [(random_graphical(rng, max_order=8, max_sum=16), rng.choice([1, 2, 3, 4]))
             for _ in range(200)]
    # large degrees: the sum of the first is exactly the guard 2^21
    cases += [(make_degree_sequence([2**18] * 8), 3),
              (make_degree_sequence([2**16] * 3 + [2]), 1)]
    for D, k in cases:
        G, script = construct_worst_case(D, k)
        assert degree_sequence_of(G) == D
        survivors, _ = max_run(G, k, make_scripted_chooser(script))
        assert len(survivors) == b(D, k).b


def test_construct_worst_case_over_the_corpus():
    # every graphical sequence of order <= 7 and sum <= 22, k = 1..5
    for D in graphical_sequences(7, 22):
        n = len(D)
        for k in range(1, 6):
            bound = b(D, k)
            G, script = construct_worst_case(D, k)
            assert (G, script) == ref.construct_worst_case(D, k)
            assert degree_sequence_of(G) == D
            j = bound.p - 1
            assert script == ([n - 1 - i for i in range(j)] + [0] if j >= 0 else [])
            survivors, _ = max_run(G, k, make_scripted_chooser(script))
            assert len(survivors) == bound.b
            assert max_worst_case(G, k)[0] == bound.b, (D, k)


def test_random_rewiring_preserves_degrees(rng):
    for _ in range(50):
        D = random_graphical(rng)
        G = realize(D)
        H = random_rewiring(G, 20, rng)
        assert degree_sequence_of(H) == D


def test_multigraph_json_round_trip():
    G = Multigraph.from_edges(3, [(0, 1, 2), (1, 2, 1)])
    assert Multigraph.from_json(G.to_json()) == G
    # the stored edges are the items from_edges reads
    assert Multigraph.from_edges(G.n, G.edges) == G
    with pytest.raises(InputError):
        Multigraph.from_json({"edges": []})


def test_construct_long_chain_without_recursion(capsys):
    # 3000 ones at k=1: the reduction chain has 1500 steps
    D = make_degree_sequence([1] * 3000)
    G, script = construct_worst_case(D, 1)
    survivors, _ = max_run(G, 1, make_scripted_chooser(script))
    assert len(survivors) == b(D, 1).b == 1500
    assert degree_sequence_of(G) == D
    code = main(["--format", "json", "construct", "--k", "1",
                 "--degrees", ",".join(["1"] * 3000)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["b"] == 1500
