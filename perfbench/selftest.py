"""Fast self-test of the benchmark, standard library only.

    python3 perfbench/selftest.py

Runs every workload on a tiny pool through the same code paths as a real
run (end-to-end metrics, then the traced pass), and checks that outputs
are verified, that a wrong output is caught, that the same seed gives the
same inputs, that the tracer restores every patched attribute, that each
run reports exactly the metrics ``BENCHMARK.json`` names, and that the
benchmark refuses to run without the package sources.  Exits non-zero on
the first failure.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from types import SimpleNamespace

import run

sys.path.insert(0, str(run.SRC))

from greedymax import cli  # noqa: E402
from greedymax.errors import InputError, LimitError  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ERRORS = (InputError, LimitError)
POOL = {"scan": 12, "witness": 6, "queries": 20, "oracles": 16}


def wrong_output(name: str, op, out):
    """An output that differs from the right one in a way a check must see."""
    if name == "scan":
        return out[0], out[1], out[2] + 1
    if name == "witness":
        degrees, script, survivors, log = out
        return degrees, script, survivors + [-1], log
    if name == "queries":
        return out[0], out[1].replace('"k": ', '"k": 1', 1)
    if op.kind == "precedes":
        return False
    if op.kind == "pseudo":
        return out[0], False
    return (out[0] + 1,) + tuple(out[1:])


def check_workload(name: str, spec: dict) -> None:
    wl = WORKLOADS[name]
    ops = wl.generate(random.Random(f"{name}:7"), POOL[name])
    again = wl.generate(random.Random(f"{name}:7"), POOL[name])
    assert [op.args for op in ops] == [op.args for op in again], name

    op = ops[0]
    out = wl.run(op)
    assert wl.check(op, out), (name, op)
    assert not wl.check(op, wrong_output(name, op, out)), (name, op)

    args = SimpleNamespace(seconds=0)
    metrics, tally, _ = run.end_to_end(wl, ops, args, ERRORS)
    assert tally.wrong == 0 and tally.passes == run.MIN_PASSES, name
    assert set(metrics) == {m["name"] for m in spec["end_to_end"]}, name
    assert all(v > 0 for v, _ in metrics.values()), (name, metrics)

    original = cli.main
    metrics, tallies, _ = run.traced(wl, ops, args, ERRORS)
    assert cli.main is original, "tracer left a wrapper installed"
    assert all(t.wrong == 0 for t in tallies), name
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}, name
    busy = {"scan": "covering.cells", "witness": "graphs.construct_calls",
            "queries": "cli.requests", "oracles": "loops.realizations"}
    assert metrics[busy[name]][0] > 0, (name, busy[name])
    print(f"ok  {name}: {len(ops)} operations")


def check_refuses_without_sources() -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "scan",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0 and not done.stdout.strip(), done
    print("ok  refuses to run without src/")


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    for name in run.NAMES:
        check_workload(name, spec)
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
