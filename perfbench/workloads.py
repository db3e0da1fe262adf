"""The four benchmark workloads: inputs, the timed operation, and its check.

Each workload turns a seeded ``random.Random`` into a pool of operations.
``run`` is the only code that is timed; it calls the package through module
attributes looked up at call time, so the tracer's wrappers see every call.
``check`` compares the result with a value worked out when the pool was
made: the scan table computed at the baseline commit, or ``reference.py``.
Pools are stratified over the property that drives cost (order, degree
magnitude), so that two seeds give pools of nearly the same cost profile.
"""

from __future__ import annotations

import importlib
import io
import itertools
import json
import math
import zlib
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import reference as ref
from greedymax import cli, covering, graphs, loops, multiset, orderlab

# The package re-exports the function ``omega`` under the submodule's name.
omega_mod = importlib.import_module("greedymax.omega")

HERE = Path(__file__).resolve().parent


@dataclass
class Op:
    kind: str
    args: tuple
    expect: object
    tags: tuple[str, ...] = ()
    degrees: list[int] = field(default_factory=list)
    # The baseline commit (a3ced47) answers this operation wrongly or raises
    # on it, a known defect.  Such
    # an operation still counts as failed, but does not make the run
    # incorrect; once the program is fixed it counts as a success.
    known_defect: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    setup_code: str  # what a user of this path imports and builds
    pool: int  # operations generated per seed
    tail_pct: float  # fixed so the metric keeps its meaning as speed changes
    generate: Callable
    run: Callable
    check: Callable


def _grid(count: int, step: int = 1) -> list[float]:
    """``count`` evenly spaced points of [0, 1), visited with stride ``step``.

    The properties that set an operation's cost (order, degree level, k)
    come from such grids rather than from the seed; strides coprime with
    ``count`` pair the grids like a Latin hypercube.  Two seeds then give
    pools of the same cost profile, and the seed varies the values within
    it and the order of the operations."""
    while math.gcd(step, count) > 1:
        step += 1
    return [((i * step) % count + 0.5) / count for i in range(count)]


def _log_between(u: float, lo: int, hi: int) -> int:
    return round(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))


def _make_graphical(vals: list[int]) -> list[int]:
    """Lower the largest element until the sum is even and at least twice it."""
    vals = sorted(vals)
    rest = sum(vals[:-1])
    if vals[-1] > rest:
        vals[-1] = rest
    if sum(vals) % 2:
        vals[-1] -= 1
    return sorted(vals)


def _digest(payload) -> int:
    return zlib.crc32(json.dumps(payload, sort_keys=True,
                                 separators=(",", ":")).encode())


# -- scan: one (kappa, v) cell of the covering scan ----------------------


def gen_scan(rng, count: int) -> list[Op]:
    with open(HERE / "scan_expected.json", encoding="utf-8") as fh:
        table = json.load(fh)
    ops = [Op("cell", (int(kappa), v), bound, known_defect=bound is None)
           for kappa, rows in table["bounds"].items() for v, bound in rows]
    rng.shuffle(ops)
    return ops[:count]


def run_scan(op: Op):
    kappa, v = op.args
    in_range = v in covering.scan_range(kappa, 1)
    base = covering.schonheim(v, kappa, 1)
    new, _ = covering.covering_lower_bound(
        covering.CoveringParams(v, kappa, 1), base)
    return in_range, base, new


def check_scan(op: Op, out) -> bool:
    in_range, base, new = out
    if op.expect is None:  # the baseline raised "input is not graphical"
        return in_range and new >= base
    return in_range and new == op.expect


# -- witness: construct -> JSON round trip -> scripted greedy replay ------


def gen_witness(rng, count: int) -> list[Op]:
    # construction cost grows with the order, the degree level and k
    ops = []
    shapes = ("regular", "uniform", "few")
    for j, shape in enumerate(shapes):
        size = count // 3 + (j < count % 3)
        for u, w, x in zip(_grid(size), _grid(size, 7), _grid(size, 13)):
            n = _log_between(u, 20, 300)
            if shape == "regular":
                d = 2 + int(w * 7)
                vals = [d] * (n + (n * d) % 2)
            elif shape == "uniform":
                top = 2 + int(w * 6)
                vals = [rng.randint(1, top) for _ in range(n)]
                vals[0] += sum(vals) % 2
            else:
                levels_used = rng.sample(range(1, 11), 2 + int(w * 2))
                vals = [rng.choice(levels_used) for _ in range(n)]
                odd = [v for v in vals if v % 2]
                if sum(vals) % 2:
                    vals.append(odd[0])
            k = 1 + int(x * 4)
            ops.append(Op(shape, (sorted(vals), k), ref.bound(vals, k),
                          (shape,), sorted(vals)))
    rng.shuffle(ops)
    return ops


def run_witness(op: Op):
    vals, k = op.args
    D = multiset.DegreeSequence.from_values(vals)
    G, script = graphs.construct_worst_case(D, k)
    H = graphs.Multigraph.from_json(json.loads(json.dumps(G.to_json())))
    survivors, log = graphs.max_run(H, k, graphs.make_scripted_chooser(script))
    return H.degrees(), script, survivors, log


def check_witness(op: Op, out) -> bool:
    degrees, script, survivors, log = out
    n = len(op.degrees)
    return (sorted(degrees) == op.degrees
            and len(survivors) == op.expect == n - len(script)
            and len(log) == len(script))


# -- queries: one in-process CLI request ---------------------------------


def _query_degrees(rng, cls: str, u: float, w: float):
    if cls == "regular":
        t = _log_between(u, 8, 128)
        t += t % 2
        return [t] * t, 2 + int(w * 3)
    if cls == "random":
        n = _log_between(u, 5, 200)
        while True:
            vals = [rng.randint(0, 7) for _ in range(n)]
            vals[0] += sum(vals) % 2
            if max(vals) >= 1 and ref.is_graphical(vals):
                return vals, min(1 + int(w * 4), max(vals))
    # The schedule's length, and so the cost, follows the degree sum.
    top = 2 ** (8 + 6 * u)
    vals = [int(top)] + [int(top * rng.uniform(0.5, 1.0))
                         for _ in range(2 + int(w * 6))]
    return _make_graphical(vals), rng.randint(1, 4)


def _query_payload(cmd: str, vals: list[int], k: int) -> dict:
    if cmd == "bound":
        chain = ref.chain(vals, k)
        return {"k": k, "b": len(vals) - len(chain) + 1,
                "p": len(chain) - 1, "chain": chain}
    step = ref.reduce_once(vals, k, full=cmd == "trace")
    if cmd == "omega":
        return {"k": k, "omega": step["omega"]}
    return {"k": k, "input": sorted(vals), **step}


def gen_queries(rng, count: int) -> list[Op]:
    # 30% regular t x t, 50% random small-degree, 20% few-vertex large-degree;
    # inside each class, 60% bound, 20% omega, 20% trace.
    classes = [("regular", 3), ("random", 5), ("large", 2)]
    cmds = ["bound"] * 3 + ["omega", "trace"]
    ops = []
    for cls, weight in classes:
        size = count * weight // 10
        for j, (u, w) in enumerate(zip(_grid(size), _grid(size, 7))):
            cmd = cmds[j % 5]
            vals, k = _query_degrees(rng, cls, u, w)
            shuffled = vals[:]
            rng.shuffle(shuffled)
            if rng.random() < 0.2:
                text = json.dumps(shuffled)
            else:
                text = ",".join(map(str, shuffled))
            argv = ["--format", "json", cmd, "--k", str(k), "--degrees", text]
            ops.append(Op(cmd, tuple(argv),
                          _digest(_query_payload(cmd, vals, k)),
                          (cmd, cls), sorted(vals)))
    rng.shuffle(ops)
    return ops


def run_query(op: Op):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(op.args))
        except SystemExit as exc:  # argparse usage error
            code = exc.code
    return code, out.getvalue()


def check_query(op: Op, out) -> bool:
    code, text = out
    if code != 0:
        return False
    try:
        return _digest(json.loads(text)) == op.expect
    except json.JSONDecodeError:
        return False


# -- oracles: differential checks against the exhaustive routines --------


def _small_graphical(rng, n: int, v_hi: int, max_sum: int, k: int = 1):
    """A random graphical sequence of order n with maximum at least k."""
    while True:
        vals = [rng.randint(0, v_hi) for _ in range(n)]
        if ref.is_graphical(vals) and sum(vals) <= max_sum and max(vals) >= k:
            return sorted(vals)


def _random_step(rng, vals: list[int], k: int) -> list[int]:
    """One elementary step (addition or transfer) chosen uniformly."""
    top = max(vals)
    moves = []
    for xs in set(vals):  # (x, y)-addition raises x-1 then y-1
        mid = vals[:]
        mid[mid.index(xs)] += 1
        for ys in set(mid):
            if xs + 1 <= ys + 1 <= top + 1:
                moves.append((xs, +1, ys, +1))
    for x in set(vals) - {0}:  # (x, y)-transfer lowers x then raises y-1
        mid = vals[:]
        mid[mid.index(x)] -= 1
        for ys in set(mid):
            y = ys + 1
            if x > max(k, y) or x < y <= k:
                moves.append((x, -1, ys, +1))
    a, da, c, dc = rng.choice(moves)
    out = vals[:]
    out[out.index(a)] += da
    out[out.index(c)] += dc
    return sorted(out)


# Loop-realization instances: order 1..5, degrees 1..5, even sum at most 16.
# Enumeration cost doubles with every +2 of the sum at order 5 (about 12 ms
# at 16, 350 ms at 24); the cap keeps one instance from dominating a run.
_LOOP_FAMILY = [
    list(v) for n in range(1, 6)
    for v in itertools.combinations_with_replacement(range(1, 6), n)
    if sum(v) % 2 == 0 and sum(v) <= 16
]


def gen_oracles(rng, count: int) -> list[Op]:
    # A quarter of the pool per kind; the order, which drives the cost of
    # the exhaustive routines, follows a grid within each kind.
    ops = []
    for j, kind in enumerate(("exhaustive", "precedes", "pseudo", "loops")):
        for i, u in enumerate(_grid(count // 4 + (j < count % 4))):
            defect = False
            k = rng.randint(1, 3)
            if kind == "exhaustive":
                vals = _small_graphical(rng, 4 + int(u * 6), 5, 40)
                expect = ref.bound(vals, k)
            elif kind == "precedes":
                E = _small_graphical(rng, 3 + int(u * 4), 5, 14)
                D = E
                for _ in range(rng.randint(1, 3)):
                    D = _random_step(rng, D, k)
                vals, expect = (D, E), True
                # precedes' search drops every state whose maximum exceeds
                # max(E) + (sum(D) - sum(E)) / 2, but a transfer with
                # x < y <= k raises the maximum without raising the sum.
                defect = max(D) > max(E) + (sum(D) - sum(E)) // 2
            elif kind == "pseudo":
                # pseudo-reductions cover the canonical reduction, not the
                # all-zero result of the degenerate branch
                while True:
                    vals = _small_graphical(rng, 3 + int(u * 5), 6, 20, k)
                    step = ref.reduce_once(vals, k)
                    if not step["degenerate"]:
                        break
                expect = step["omega"]
            else:
                # every instance of the capped family once per k, so the
                # heaviest enumerations are the same for every seed
                vals = _LOOP_FAMILY[i % len(_LOOP_FAMILY)]
                k = 1 + i // len(_LOOP_FAMILY) % 4
                expect = True
            degrees = vals[1] if kind == "precedes" else vals
            ops.append(Op(kind, (vals, k), expect, (kind,), degrees, defect))
    rng.shuffle(ops)
    return ops


def run_oracle(op: Op):
    vals, k = op.args
    seq = multiset.DegreeSequence.from_values
    if op.kind == "exhaustive":
        G, script = graphs.construct_worst_case(seq(vals), k)
        size, _ = graphs.max_worst_case(G, k)
        return len(vals) - len(script), size, sorted(G.degrees())
    if op.kind == "precedes":
        return orderlab.precedes(seq(vals[0]), seq(vals[1]), k)
    if op.kind == "pseudo":
        E = seq(vals)
        reduced = omega_mod.omega(E, k)
        return reduced.values(), reduced in orderlab.pseudo_reductions(E, k)
    D = seq(vals)
    closed = loops.alpha_k_min_loops(D, k)
    least = min(loops.alpha_k_bruteforce(G, k)
                for G in loops.enumerate_loop_realizations(D))
    H = loops.construct_extremal_loop_multigraph(D, k)
    return closed, least, loops.alpha_k_bruteforce(H, k), sorted(H.degrees())


def check_oracle(op: Op, out) -> bool:
    vals, k = op.args
    if op.kind == "exhaustive":
        return out[0] == out[1] == op.expect and out[2] == vals
    if op.kind == "precedes":
        return out is True
    if op.kind == "pseudo":
        return out == (op.expect, True)
    closed, least, built, degrees = out
    return closed == least == built and degrees == vals


WORKLOADS = {
    "scan": Workload(
        "scan", "import greedymax.covering", 1443, 99.0,
        gen_scan, run_scan, check_scan),
    "witness": Workload(
        "witness", "import greedymax.graphs", 150, 90.0,
        gen_witness, run_witness, check_witness),
    "queries": Workload(
        "queries", "from greedymax import cli\ncli.build_parser()", 1000, 99.0,
        gen_queries, run_query, check_query),
    "oracles": Workload(
        "oracles",
        "import greedymax.graphs, greedymax.orderlab, greedymax.loops",
        4 * 4 * len(_LOOP_FAMILY), 99.0, gen_oracles, run_oracle,
        check_oracle),
}


def traffic(name: str, ops: list[Op]) -> dict:
    """What the pool contains, recorded next to the results."""
    ctx: dict = {"pool": len(ops)}
    if name == "scan":
        kappas = [op.args[0] for op in ops]
        vs = [op.args[1] for op in ops]
        ctx.update(kappa=[min(kappas), max(kappas)], v=[min(vs), max(vs)],
                   cells_without_seed_value=sum(op.expect is None for op in ops))
        return ctx
    degs = [op.degrees for op in ops]
    ctx.update(
        order=[min(map(len, degs)), max(map(len, degs))],
        degree_sum=[min(map(sum, degs)), max(map(sum, degs))],
        max_degree=[min(map(max, degs)), max(map(max, degs))],
        distinct_values=[min(len(set(d)) for d in degs),
                         max(len(set(d)) for d in degs)],
    )
    kinds: dict[str, int] = {}
    for op in ops:
        for tag in op.tags:
            kinds[tag] = kinds.get(tag, 0) + 1
    ctx["mix"] = kinds
    return ctx
