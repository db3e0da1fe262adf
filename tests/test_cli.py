import json
import os
import subprocess
import sys

import pytest

import greedymax
from greedymax.cli import build_parser, main
from greedymax.graphs import Multigraph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_worked_example(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "bound", "--k", "3",
        "--degrees", "1,2,2,4,4,5,6",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["b"] == 4 and payload["p"] == 3
    assert payload["chain"][-1] == [0, 0, 0, 0]


def test_bound_trivial(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "bound", "--k", "1", "--degrees", "0,0"
    )
    assert code == 0 and json.loads(out)["b"] == 2


def test_bound_not_graphical_exits_2(capsys):
    code, _, err = run(capsys, "bound", "--k", "3", "--degrees", "5")
    assert code == 2
    assert "graphical" in err


def test_degrees_json_form(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "bound", "--k", "3",
        "--degrees", "[1,2,2,4,4,5,6]",
    )
    assert code == 0 and json.loads(out)["b"] == 4
    # items must be JSON integers: no strings, nesting, floats or booleans
    for degrees in ('["a"]', "[[1]]", "[1.5,1.5]", "[true,true]"):
        code, out, err = run(capsys, "bound", "--k", "1", "--degrees", degrees)
        assert code == 2 and out == "" and err.startswith("error:")


def test_omega_and_trace(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "omega", "--k", "3",
        "--degrees", "1,2,2,4,4,5,6",
    )
    assert code == 0 and json.loads(out)["omega"] == [0, 1, 2, 3, 3, 3]
    code, out, _ = run(
        capsys, "--format", "json", "trace", "--k", "3",
        "--degrees", "1,2,2,4,4,5,6",
    )
    payload = json.loads(out)
    assert payload["a"][:4] == [5, 4, 4, 4] and payload["s"] == 18


def test_omega_on_all_zero_input(capsys):
    code, out, err = run(capsys, "omega", "--k", "1", "--degrees", "0,0")
    assert (code, out, err) == (0, "{0}\n", "")


def test_construct_verify_round_trip(capsys, tmp_path):
    code, out, _ = run(
        capsys, "--format", "json", "construct", "--k", "3",
        "--degrees", "1,2,2,4,4,5,6",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["b"] == 4
    graph_file = tmp_path / "g.json"
    graph_file.write_text(json.dumps(payload["graph"]))
    script_file = tmp_path / "s.json"
    script_file.write_text(json.dumps(payload["script"]))

    # graph JSON round-trips through the parser
    assert Multigraph.from_json(payload["graph"]).to_json() == payload["graph"]

    code, out, _ = run(
        capsys, "--format", "json", "verify", "--k", "3",
        "--graph", str(graph_file), "--script", str(script_file),
    )
    assert code == 0
    assert json.loads(out)["size"] == 4

    # the README form: the whole construct output as both graph and script
    whole_file = tmp_path / "w.json"
    whole_file.write_text(json.dumps(payload))
    code, whole_out, _ = run(
        capsys, "--format", "json", "verify", "--k", "3",
        "--graph", str(whole_file), "--script", str(whole_file),
    )
    assert code == 0 and whole_out == out

    code, out, _ = run(
        capsys, "--format", "json", "verify", "--k", "3",
        "--graph", str(graph_file), "--exhaustive",
    )
    assert code == 0
    assert json.loads(out)["worst_case"] == 4


def test_verify_guard_exits_3(capsys, tmp_path):
    graph_file = tmp_path / "big.json"
    graph_file.write_text(json.dumps({"n": 12, "edges": [[0, 1, 1]]}))
    code, _, err = run(
        capsys, "verify", "--k", "1", "--graph", str(graph_file), "--exhaustive"
    )
    assert code == 3


def test_verify_malformed_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run(capsys, "verify", "--k", "1", "--graph", str(bad))
    assert code == 2
    # n must be a nonnegative JSON integer, vertices and multiplicities JSON
    # integers, and an edge item must have length 2 or 3
    for data in (
        {"n": -2, "edges": []},
        {"n": 3, "edges": [[0]]},
        {"n": "x", "edges": []},
        {"n": 2.0, "edges": []},
        {"n": 3, "edges": [[0.0, 1, 1]]},
        {"n": 3, "edges": [[0, 1, 1.5]]},
        {"n": 3, "edges": [[0, True, 1]]},
        {"n": 3, "edges": [[0, 1, 1, 1]]},
        {"n": 3, "edges": [[[0, 1, 2], 1]]},
    ):
        bad.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", "--k", "1", "--graph", str(bad))
        assert code == 2 and out == "" and err.startswith("error:"), data
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"n": 2, "edges": [[0, 1, 1]]}))
    script = tmp_path / "s.json"
    for text in ("[0]", '{"deletions": ["0"]}'):
        script.write_text(text)
        code, _, err = run(
            capsys, "verify", "--k", "1", "--graph", str(graph), "--script", str(script)
        )
        assert code == 2 and "script" in err


def test_verify_vertex_count_guard_exits_3(capsys, tmp_path):
    # a greedy run allocates O(n), so n is refused before any allocation
    graph = tmp_path / "huge.json"
    graph.write_text(json.dumps({"n": 100000000000, "edges": []}))
    code, out, err = run(capsys, "verify", "--k", "1", "--graph", str(graph))
    assert code == 3 and out == ""
    assert err == "error: vertex count 100000000000 exceeds guard 2097152\n"


def test_trace_and_construct_degree_sum_guard(capsys):
    degrees = "2147483646,2147483646,2"
    # the Ferrers diagram has one cell per unit of degree, so it is guarded too
    for cmd in ("trace", "construct", "ferrers"):
        code, out, err = run(capsys, cmd, "--k", "1", "--degrees", degrees)
        assert code == 3 and out == ""
        assert "degree sum 4294967294 exceeds guard 2097152" in err
    code, _, _ = run(capsys, "bound", "--k", "1", "--degrees", degrees)
    assert code == 0


def test_closed_pipe_exits_quietly():
    # the read end is closed before the command starts, so its first write
    # of the buffered CSV (about 34 KB) fails while covering-scan prints
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(greedymax.__file__))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "greedymax.cli", "--format", "csv",
             "covering-scan", "--kappa-min", "14", "--kappa-max", "20"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 0
    # no traceback, and no "Exception ignored" from the final flush either
    assert done.stderr == b""


def test_lab_precedes(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "lab", "precedes", "--k", "3",
        "--d", "1,2,3,4,4,5,7", "--e", "1,2,2,4,4,5,6",
    )
    assert code == 0 and json.loads(out)["precedes"] is True


def test_lab_pseudo_reductions(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "lab", "pseudo-reductions",
        "--k", "1", "--degrees", "1,1,2",
    )
    assert code == 0
    assert json.loads(out)["pseudo_reductions"] == [[0, 0]]
    # the enumeration is exponential: sum(E) <= 26 runs, more exits 3
    code, out, err = run(
        capsys, "lab", "pseudo-reductions", "--k", "1", "--degrees", "13,13"
    )
    assert (code, out, err) == (0, "{0}\n", "")
    for degrees, total in (("14,14", 28), ("100000000,100000000", 200000000)):
        code, out, err = run(
            capsys, "lab", "pseudo-reductions", "--k", "1", "--degrees", degrees
        )
        assert (code, out) == (3, "")
        assert err == f"error: degree sum {total} exceeds guard 26\n"


def test_covering_command(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "covering",
        "--v", "50", "--kappa", "14", "--start", "16",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["bound"] == 17
    # b is computed only when a report is read, and still exact
    assert [(r["z"], r["b"], r["contradiction"], r["reason"])
            for r in payload["reports"]] == [
        (16, 17, True, "b > z"),
        (17, 11, False, None),
    ]
    code, out, _ = run(
        capsys, "covering", "--v", "50", "--kappa", "14", "--start", "16"
    )
    assert code == 0
    assert out.splitlines() == [
        "C_1(50,14) >= 17",
        "  z=16: r=4 d=3 s=0 ell=24 k=3 b=17 contradiction=True (b > z)",
        "  z=17: r=4 d=3 s=0 ell=38 k=3 b=11 contradiction=False",
    ]


def test_covering_command_non_graphical_first_report(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "covering", "--v", "91", "--kappa", "19"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["bound"] == 28
    assert [(r["z"], r["b"], r["reason"]) for r in payload["reports"]] == [
        (24, None, "excess degree sequence is not graphical"),
        (25, 74, "b > z"),
        (26, 58, "b > z"),
        (27, 41, "b > z"),
        (28, 25, None),
    ]


def test_covering_scan_csv(capsys, tmp_path):
    priors = tmp_path / "priors.csv"
    priors.write_text("kappa,v,lambda,bound,source\n14,50,1,16,Thm9\n")
    code, out, _ = run(
        capsys, "--format", "csv", "covering-scan",
        "--kappa-min", "14", "--kappa-max", "14", "--priors", str(priors),
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kappa,v,d,r,ell,previous,source,new"
    assert any(line.startswith("14,50,3,4,24,16,") for line in lines)


def test_loops_command(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "loops", "--k", "3",
        "--degrees", "3,3,3,3", "--construct",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha_min"] == 2
    assert "graph" in payload


def test_ferrers_command(capsys):
    code, out, _ = run(capsys, "ferrers", "--k", "3", "--degrees", "2,1")
    assert code == 0
    assert out.splitlines() == ["##", "#"]


def test_ferrers_guard_admits_its_bound(capsys):
    code, out, _ = run(capsys, "ferrers", "--k", "1", "--degrees", "1048576,1048576")
    assert code == 0 and len(out) == 2 * (1048576 + 2)


def test_one_parser_serves_every_call(capsys, tmp_path):
    assert build_parser() is build_parser()
    code, out, _ = run(
        capsys, "--format", "json", "construct", "--k", "3",
        "--degrees", "1,2,2,4,4,5,6",
    )
    whole = tmp_path / "w.json"
    whole.write_text(out)
    calls = [
        ["verify", "--k", "3", "--graph", str(whole), "--script", str(whole)],
        ["verify", "--k", "3", "--graph", str(whole)],
        ["covering", "--v", "50", "--kappa", "14", "--start", "16"],
        ["covering", "--v", "50", "--kappa", "14"],
        ["--format", "json", "bound", "--k", "3", "--degrees", "1,2,2,4,4,5,6"],
        ["bound", "--k", "3", "--degrees", "1,2,2,4,4,5,6"],
    ]
    # options left out of a call must not keep the values of an earlier call
    shared = [run(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert shared == fresh
    assert shared[0][1] != shared[1][1] and shared[2][1] != shared[3][1]
    assert shared[4][1] != shared[5][1]


def test_parser_surface(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("positional arguments:") + 2
    listed = [line.split(None, 1) for line in lines[start:start + 10]]
    assert listed == [
        ["bound", "worst-case bound b_k(D)"],
        ["omega", "one reduction step"],
        ["trace", "full decrement schedule"],
        ["construct", "worst-case witness multigraph"],
        ["verify", "replay or exhaust greedy runs"],
        ["ferrers", "Ferrers diagram"],
        ["lab", "order-theoretic oracles"],
        ["covering", "iterated covering lower bound"],
        ["covering-scan", "scan (kappa, v) grid"],
        ["loops", "loop-multigraph minimum alpha_k"],
    ]
    assert lines[start + 10] == ""
    with pytest.raises(SystemExit) as exc:
        main(["lab", "--help"])
    assert exc.value.code == 0
    assert "{precedes,pseudo-reductions}" in capsys.readouterr().out
    for argv in (
        ["bound", "--degrees", "1,1"],
        ["nope"],
        ["--format", "xml", "bound", "--k", "1", "--degrees", "1,1"],
        ["lab"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: greedymax")
