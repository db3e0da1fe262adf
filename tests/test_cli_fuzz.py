"""Fuzz the CLI in-process over argv: every request ends with exit 0, 2 or 3
and no traceback, and a JSON request that succeeds prints JSON.  Degree
lists come in the comma form, as JSON arrays and malformed; no instance has
more than 8 degrees of at most 512, so each stays under the guards (sum at
most 2^12) and no example starts a long run.  ``lab precedes``,
``covering`` (v <= 200, any start below 2^64), ``covering-scan`` (kappa
5..7), ``construct`` replayed by ``verify --script``, ``verify`` on
missing or malformed graph files, and ``verify --exhaustive`` on graphs
of order up to 70, connected or not, or with up to 2^21 + 1 vertices and
a few edges, are fuzzed the same way."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from greedymax import graphs
from greedymax.cli import main

degree = st.integers(0, 512)


def graphical(vals):
    """vals with its maximum lowered to the sum of the others, and then by
    one more if the sum is odd: a graphical sequence."""
    vals = sorted(vals)
    if vals:
        vals[-1] = min(vals[-1], sum(vals[:-1]))
        vals[-1] -= sum(vals) % 2
    return vals


# small degrees too, as pseudo-reductions refuses sums above 26
lists = st.one_of(st.lists(st.integers(0, 6), max_size=8), st.lists(degree, max_size=8))
lists = st.one_of(lists, lists.map(graphical))
comma_form = lists.map(lambda vals: ",".join(map(str, vals)))
json_form = st.tuples(lists, st.sampled_from(["", " ", "\n"])).map(
    lambda drawn: json.dumps(drawn[0]).replace(", ", "," + drawn[1])
)
# tokens that are not JSON integers, or not integers at all
bad_token = st.sampled_from(
    ["", " ", "-1", "-512", "a", "1.5", "1e3", "0x1", "true", "null", '"1"', "[1]", "[", "]", "--1"]
)
malformed = st.tuples(
    st.lists(st.one_of(degree.map(str), bad_token), min_size=1, max_size=8),
    st.sampled_from([",", ";", " ", ",,"]),
    st.booleans(),
).map(lambda drawn: ("[%s]" if drawn[2] else "%s") % drawn[1].join(drawn[0]))

SUBCOMMANDS = (["bound"], ["omega"], ["trace"], ["ferrers"], ["lab", "pseudo-reductions"],
               ["loops"], ["loops", "--construct"])


@settings(max_examples=250, deadline=None)
@given(
    fmt=st.sampled_from(["text", "json"]),
    cmd=st.sampled_from(SUBCOMMANDS),
    k=st.one_of(st.integers(0, 8), st.integers(0, 600)),
    degrees=st.one_of(comma_form, json_form, malformed),
)
def test_cli_exits_cleanly(fmt, cmd, k, degrees):
    argv = ["--format", fmt, *cmd, "--k", str(k), "--degrees", degrees]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refused the arguments
            code = exc.code
    assert code in (0, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    # a Ferrers diagram is its output in every format
    if code == 0 and fmt == "json" and cmd != ["ferrers"]:
        json.loads(out.getvalue())


def check(argv):
    """The checks of ``test_cli_exits_cleanly`` on any argv that starts with
    ``--format``; returns the exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refused the arguments
            code = exc.code
    assert code in (0, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 0 and argv[1] == "json":
        json.loads(out.getvalue())
    return code, out.getvalue()


formats = st.sampled_from(["text", "json", "csv"])
order_8 = st.lists(st.integers(0, 6), min_size=1, max_size=8)


@settings(max_examples=100, deadline=None)
@given(fmt=formats, k=st.integers(0, 8), d=order_8, e=order_8, same=st.booleans())
def test_lab_precedes_exits_cleanly(fmt, k, d, e, same):
    if same:  # equal orders, so the guards and the search are reached
        e = (e * len(d))[: len(d)]
    check(["--format", fmt, "lab", "precedes", "--k", str(k),
           "--d", ",".join(map(str, d)), "--e", ",".join(map(str, e))])


@settings(max_examples=100, deadline=None)
@given(
    fmt=formats,
    v=st.integers(-1, 200),
    kappa=st.integers(-1, 202),
    lam=st.integers(-1, 4),
    start=st.one_of(st.none(), st.integers(-1, 2**64)),
)
def test_covering_exits_cleanly(fmt, v, kappa, lam, start):
    argv = ["--format", fmt, "covering", "--v", str(v), "--kappa", str(kappa),
            "--lambda", str(lam)]
    check(argv + ([] if start is None else ["--start", str(start)]))


@settings(max_examples=30, deadline=None)
@given(fmt=formats, lo=st.integers(4, 7), hi=st.integers(4, 7), lam=st.integers(0, 3))
def test_covering_scan_exits_cleanly(fmt, lo, hi, lam):
    check(["--format", fmt, "covering-scan", "--kappa-min", str(lo),
           "--kappa-max", str(hi), "--lambda", str(lam)])


@settings(max_examples=60, deadline=None)
@given(fmt=formats, k=st.integers(0, 8), degrees=lists)
def test_construct_then_verify_exits_cleanly(tmp_path_factory, fmt, k, degrees):
    code, out = check(["--format", "json", "construct", "--k", str(k),
                       "--degrees", ",".join(map(str, degrees))])
    if code:
        return
    witness = tmp_path_factory.mktemp("witness") / "w.json"
    witness.write_text(out)
    code, out = check(["--format", fmt, "verify", "--k", str(k),
                       "--graph", str(witness), "--script", str(witness)])
    # a witness always replays, to exactly its bound
    assert code == 0
    if fmt == "json":
        assert json.loads(out)["size"] == json.loads(witness.read_text())["b"]


# graph files: missing, not JSON, JSON of any shape, or a graph whose vertex
# count and edges are drawn from the same small integers
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 4), st.text(max_size=3)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(["n", "edges", "x"]), inner, max_size=3),
    ),
    max_leaves=12,
)
graph_files = st.one_of(
    st.none(),
    st.sampled_from([b"", b"{", b'\xff{"n": 2}', b'{"n": 2, "edges": [[0, 1, 1]]']),
    json_values.map(lambda value: json.dumps(value).encode()),
    st.builds(
        lambda n, edges: json.dumps({"n": n, "edges": edges}).encode(),
        st.integers(-1, 6),
        st.lists(st.lists(st.integers(-1, 6), min_size=2, max_size=4), max_size=6),
    ),
)


@settings(max_examples=100, deadline=None)
@given(fmt=formats, k=st.integers(0, 4), graph=graph_files, exhaustive=st.booleans())
def test_verify_graph_files_exit_cleanly(tmp_path_factory, fmt, k, graph, exhaustive):
    path = tmp_path_factory.mktemp("graph") / "g.json"
    if graph is not None:  # else the file is missing
        path.write_bytes(graph)
    check(["--format", fmt, "verify", "--k", str(k), "--graph", str(path)]
          + ["--exhaustive"] * exhaustive)


@st.composite
def search_graphs(draw, max_order=40):
    """A graph of order 1..max_order with multiplicities 1..3, as (n, edges):
    random edges alone, or over a random spanning tree, or over a ring
    where each vertex meets the next two, whose search is long."""
    n = draw(st.integers(1, max_order))
    # u and a distinct v = u + shift mod n
    pair = st.tuples(st.integers(0, n - 1), st.integers(1, max(n - 1, 1)), st.integers(1, 3))
    pairs = pair.map(lambda e: (e[0], (e[0] + e[1]) % n, e[2]))
    edges = draw(st.lists(pairs, max_size=3 * n if n > 1 else 0))
    shape = draw(st.sampled_from(["random", "tree", "ring"]))
    if shape == "tree":
        edges += [(draw(st.integers(0, v - 1)), v, 1) for v in range(1, n)]
    if shape == "ring" and n > 2:
        edges += [(v, (v + j) % n, 1) for v in range(n) for j in (1, 2) if (v + j) % n != v]
    return n, edges


def check_exhaustive(tmp_path_factory, fmt, k, n, edges):
    # the budget of component states is lowered to 500 so that no example
    # searches for long; CLI tests and CI reach the real one
    path = tmp_path_factory.mktemp("graph") / "g.json"
    path.write_text(json.dumps({"n": n, "edges": [list(e) for e in edges]}))
    with mock.patch.object(graphs, "WORST_CASE_MAX_STATES", 500):
        code, _ = check(["--format", fmt, "verify", "--k", str(k), "--graph", str(path),
                         "--exhaustive"])
    assert code in (0, 3)


@settings(max_examples=40, deadline=None)
@given(fmt=formats, k=st.integers(1, 4), graph=st.one_of(search_graphs(), search_graphs(70)))
def test_verify_exhaustive_exits_cleanly(tmp_path_factory, fmt, k, graph):
    check_exhaustive(tmp_path_factory, fmt, k, *graph)


# a huge vertex count, up to one past the vertex guard, with a few edges;
# the adjacency holds only the vertices with an edge, so an example is cheap
@settings(max_examples=20, deadline=None)
@given(fmt=formats, k=st.integers(1, 4),
       n=st.one_of(st.integers(2**20, 2**21), st.just(2**21 + 1)),
       edges=st.lists(st.tuples(st.integers(0, 9), st.integers(10, 19), st.integers(1, 3)),
                      max_size=8))
def test_verify_exhaustive_on_huge_graphs(tmp_path_factory, fmt, k, n, edges):
    check_exhaustive(tmp_path_factory, fmt, k, n, edges)
