"""Benchmark of the greedymax package: four closed-loop workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

One client sends the next operation only after the previous one returned
(closed loop, no threads or subprocesses while timing).  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` runs the same closed loop
untraced, then one traced pass over the whole pool, and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Spans and a results file with the traffic context go to ``.perfbench_out/``.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
NAMES = ("scan", "witness", "queries", "oracles")
# Fresh interpreters timed before and again after the closed loop; the
# median of both batches is reported, so one noisy moment cannot set it.
SETUP_RUNS = 8
MIN_PASSES = 3
TAIL_MIN_BEYOND = 10
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def setup_times(code: str, runs: int) -> list[float]:
    """Seconds to import and build, each in a fresh interpreter.

    The clock starts inside the child after interpreter start-up, so bare
    start-up is excluded.  One discarded run first fills the bytecode cache."""
    child = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        "sys.path.insert(0, sys.argv[1])\n"
        f"{code}\n"
        "print(repr(time.perf_counter() - t0))\n"
    )
    times = []
    for i in range(runs + 1):
        done = subprocess.run(
            [sys.executable, "-E", "-s", "-c", child, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        if i:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


class Tally:
    """Outcomes and latencies of whole passes over a pool of operations."""

    def __init__(self, pool: int) -> None:
        self.attempted = self.failed = self.wrong = self.passes = 0
        self.ok_ops: set[int] = set()
        self.latency_ns: list[list[int]] = [[] for _ in range(pool)]

    def record(self, wl, index: int, op, out, elapsed_ns: int, errors) -> None:
        self.attempted += 1
        self.latency_ns[index].append(elapsed_ns)
        if not isinstance(out, Exception) and wl.check(op, out):
            self.ok_ops.add(index)
            return
        self.failed += 1
        if isinstance(out, Exception) and not isinstance(out, errors):
            if not self.wrong:
                traceback.print_exception(out, file=sys.stderr)
            self.wrong += 1
        else:
            self.wrong += not op.known_defect

    def op_ns(self) -> list[float]:
        """Each operation's median time over the passes.

        A pass that overlaps a slow moment of the machine shifts every
        operation of that pass, so medians per operation keep it out."""
        return [statistics.median(xs) for xs in self.latency_ns]

    @property
    def ops_per_s(self) -> float:
        """One client's completed operations per second over one pass."""
        return len(self.ok_ops) / (sum(self.op_ns()) / 1e9)


def closed_loop(wl, ops, seconds: float, errors, passes: int = MIN_PASSES,
                run=None) -> Tally:
    """Whole passes over the pool until ``seconds`` have passed, and at
    least ``passes`` of them, so every operation is timed equally often."""
    run = run or (lambda index, op: wl.run(op))
    tally = Tally(len(ops))
    deadline = time.perf_counter() + seconds
    while tally.passes < passes or time.perf_counter() < deadline:
        for index, op in enumerate(ops):
            t0 = time.perf_counter_ns()
            try:
                out = run(index, op)
            except Exception as exc:  # counted as failed; unexpected printed
                out = exc
            elapsed = time.perf_counter_ns() - t0
            tally.record(wl, index, op, out, elapsed, errors)
        tally.passes += 1
    return tally


def tail(op_ns: list[float], pct: float) -> tuple[float, float, int]:
    """Nearest-rank percentile in ms, stepping down the ladder when fewer
    than ten samples lie beyond the requested one."""
    xs = sorted(op_ns)
    for p in [pct] + [q for q in TAIL_LADDER if q < pct]:
        rank = math.ceil(p / 100 * len(xs))
        if len(xs) - rank >= TAIL_MIN_BEYOND:
            break
    return xs[max(rank - 1, 0)] / 1e6, p, len(xs) - rank


def context(wl_name: str, ops) -> dict:
    from workloads import traffic

    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            if target.is_file():
                commit = target.read_text().strip()
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "greedymax").glob("*.py")))
    return {"commit": commit, "python": platform.python_version(),
            "src_lines": src_lines, "traffic": traffic(wl_name, ops)}


def end_to_end(wl, ops, args, errors) -> tuple[dict, Tally, list[str]]:
    setups = setup_times(wl.setup_code, SETUP_RUNS)
    tally = closed_loop(wl, ops, args.seconds, errors)
    setups += setup_times(wl.setup_code, SETUP_RUNS)
    setup_s = statistics.median(setups)
    op_ns = tally.op_ns()
    p50 = statistics.median(op_ns) / 1e6
    tail_ms, pct, beyond = tail(op_ns, wl.tail_pct)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (tally.ops_per_s, "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mib": (rss, "MiB"),
    }
    n, runs = len(ops), tally.attempted
    notes = [
        f"setup_s      {setup_s:.4f} s    median of {len(setups)} "
        "fresh interpreters",
        f"ops_per_s    {tally.ops_per_s:.2f} 1/s  {len(tally.ok_ops)} of "
        f"{n} operations ok, {tally.passes} passes",
        f"op_p50_ms    {p50:.4f} ms   n={n} operations, median of "
        f"{tally.passes} passes each",
        f"op_tail_ms   {tail_ms:.4f} ms   p{pct:g}, n={n}, {beyond} beyond",
        f"failed_ratio {tally.failed / runs:.6f}      {tally.failed}/{runs}",
        f"peak_rss_mib {rss:.2f} MiB  whole benchmark process",
    ]
    return metrics, tally, notes


def traced(wl, ops, args, errors) -> tuple[dict, list[Tally], list[str]]:
    from layers import layer_metrics
    from tracer import Tracer

    plain = closed_loop(wl, ops, args.seconds, errors)
    tr = Tracer()
    tr.install()
    try:
        spanned = closed_loop(wl, ops, 0, errors, passes=1,
                              run=lambda i, op: tr.run_op(i, wl.run, op))
    finally:
        tr.uninstall()
    OUT.mkdir(exist_ok=True)
    tr.write(str(OUT / f"{wl.name}-spans.tsv.gz"))
    metrics = layer_metrics(tr, [op.tags for op in ops])
    ratio = spanned.ops_per_s / plain.ops_per_s if plain.ops_per_s else 0.0
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    notes = [f"traced pass: {len(ops)} operations, {len(tr.name)} spans; "
             f"untraced {plain.ops_per_s:.2f} 1/s, traced "
             f"{spanned.ops_per_s:.2f} 1/s",
             f"not found, so not traced: {', '.join(tr.missing) or 'none'}"]
    return metrics, [plain, spanned], notes


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    from greedymax.errors import InputError, LimitError
    from workloads import WORKLOADS

    errors = (InputError, LimitError)
    wl = WORKLOADS[args.workload]
    ops = wl.generate(random.Random(f"{wl.name}:{args.seed}"), wl.pool)
    # keep the pool out of the collections the program's allocations trigger
    gc.collect()
    gc.freeze()
    if args.trace:
        metrics, tallies, notes = traced(wl, ops, args, errors)
    else:
        metrics, tally, notes = end_to_end(wl, ops, args, errors)
        tallies = [tally]
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    correct = all(t.wrong == 0 for t in tallies)
    ctx = context(wl.name, ops)
    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  correct {correct}")
    for line in notes:
        print("  " + line)
    print("  context " + json.dumps(ctx, sort_keys=True))
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{wl.name}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"seed": args.seed, "seconds": args.seconds,
                   "report": notes, "context": ctx, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process, then one summary line."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        summary["correct"] &= res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = val
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "greedymax" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
