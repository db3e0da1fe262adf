"""Command-line front end.

Subcommands map 1:1 onto the library: bound / omega / trace / construct /
verify expose the reduction chain and witness machinery, lab exposes the
order-theoretic oracles, covering and covering-scan the pair-covering
bounds, and loops the loop-multigraph variant.  Exit codes: 0 success,
2 input error, 3 resource guard exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import covering, graphs, loops, orderlab
from .errors import InputError, LimitError
from .multiset import parse_degrees, render_ferrers
from .omega import b as omega_b
from .omega import decrement_sequence, omega

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_LIMIT = 3


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON file {path}: {exc}") from exc


def _section(data, key: str):
    """data[key] when data is a whole ``construct`` output, else data."""
    return data[key] if isinstance(data, dict) and key in data else data


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print(text)


def cmd_bound(args) -> int:
    D = parse_degrees(args.degrees)
    trace = omega_b(D, args.k)
    text_lines = [f"b = {trace.b}  (p = {trace.p}, n = {len(D)})"]
    for i, step in enumerate(trace.chain):
        text_lines.append(f"  chain[{i}] = {step}")
    _emit(args, trace.to_json(), "\n".join(text_lines))
    return EXIT_OK


def cmd_omega(args) -> int:
    D = parse_degrees(args.degrees)
    out = omega(D, args.k)
    _emit(args, {"k": args.k, "omega": out.values()}, str(out))
    return EXIT_OK


def cmd_trace(args) -> int:
    D = parse_degrees(args.degrees)
    trace = decrement_sequence(D, args.k)
    payload = trace.to_json()
    if trace.degenerate:
        text = f"degenerate: omega = {trace.omega}"
    else:
        text = (
            f"a = ({','.join(map(str, trace.a))})  s = {trace.s}\n"
            f"omega = {trace.omega}"
        )
    _emit(args, payload, text)
    return EXIT_OK


def cmd_construct(args) -> int:
    D = parse_degrees(args.degrees)
    G, script = graphs.construct_worst_case(D, args.k)
    payload = {
        "k": args.k,
        "graph": G.to_json(),
        "script": {"deletions": script},
        "b": len(D) - len(script),
    }
    text = (
        f"graph: {json.dumps(G.to_json())}\n"
        f"deletions: {script}\n"
        f"survivors: {len(D) - len(script)}"
    )
    _emit(args, payload, text)
    return EXIT_OK


def cmd_verify(args) -> int:
    # --graph and --script take either their own files or one construct output
    G = graphs.Multigraph.from_json(_section(_load_json(args.graph), "graph"))
    if args.exhaustive:
        size, script = graphs.max_worst_case(G, args.k)
        payload = {"k": args.k, "worst_case": size, "script": script}
        text = f"worst case over all runs: {size}  (script {script})"
    else:
        chooser = None
        if args.script:
            data = _section(_load_json(args.script), "script")
            if not isinstance(data, dict):
                raise InputError(f"malformed deletion script JSON in {args.script}")
            chooser = graphs.make_scripted_chooser(data.get("deletions", []))
        survivors, log = graphs.max_run(G, args.k, chooser)
        payload = {
            "k": args.k,
            "survivors": survivors,
            "size": len(survivors),
            "log": [[v, d] for v, d in log],
        }
        text = f"survivors ({len(survivors)}): {survivors}\nlog: {log}"
    _emit(args, payload, text)
    return EXIT_OK


def cmd_ferrers(args) -> int:
    D = parse_degrees(args.degrees)
    print(render_ferrers(D, args.k))
    return EXIT_OK


def cmd_lab_precedes(args) -> int:
    D = parse_degrees(args.d)
    E = parse_degrees(args.e)
    result = orderlab.precedes(D, E, args.k)
    _emit(args, {"k": args.k, "precedes": result}, str(result).lower())
    return EXIT_OK


def cmd_lab_pseudo(args) -> int:
    E = parse_degrees(args.degrees)
    outs = orderlab.pseudo_reductions(E, args.k)
    payload = {"k": args.k, "pseudo_reductions": [o.values() for o in outs]}
    _emit(args, payload, "\n".join(str(o) for o in outs))
    return EXIT_OK


def cmd_covering(args) -> int:
    params = covering.CoveringParams(args.v, args.kappa, args.lam)
    start = args.start if args.start is not None else covering.schonheim(
        args.v, args.kappa, args.lam
    )
    final, reports = covering.covering_lower_bound(params, start)
    payload = {
        "v": args.v,
        "kappa": args.kappa,
        "lambda": args.lam,
        "start": start,
        "bound": final,
        "reports": [r.to_json() for r in reports],
    }
    lines = [f"C_{args.lam}({args.v},{args.kappa}) >= {final}"]
    for r in reports:
        lines.append(
            f"  z={r.z}: r={r.r} d={r.d} s={r.s} ell={r.ell} "
            f"k={r.k} b={r.b} contradiction={r.contradiction}"
            + (f" ({r.reason})" if r.reason else "")
        )
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_covering_scan(args) -> int:
    priors = covering.load_priors(args.priors) if args.priors else None
    rows = covering.scan_table(args.kappa_min, args.kappa_max, args.lam, priors)
    if args.format == "json":
        print(json.dumps([r.to_csv_row() for r in rows]))
    elif args.format == "csv":
        print(",".join(covering.CSV_COLUMNS))
        for r in rows:
            print(",".join(str(x) for x in r.to_csv_row()))
    else:
        header = f"{'kappa':>5} {'v':>5} {'d':>3} {'r':>3} {'ell':>4} {'prev':>5} {'new':>5}  source"
        print(header)
        for r in rows:
            print(
                f"{r.kappa:>5} {r.v:>5} {r.d:>3} {r.r:>3} {r.ell:>4} "
                f"{r.previous:>5} {r.new:>5}  {r.source}"
            )
    return EXIT_OK


def cmd_loops(args) -> int:
    D = parse_degrees(args.degrees)
    value = loops.alpha_k_min_loops(D, args.k)
    payload: dict = {"k": args.k, "alpha_min": value}
    text = f"minimum alpha_{args.k} over loop realizations: {value}"
    if args.construct:
        G = loops.construct_extremal_loop_multigraph(D, args.k)
        payload["graph"] = G.to_json()
        text += f"\nextremal graph: {json.dumps(G.to_json())}"
    _emit(args, payload, text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greedymax",
        description="Worst-case analysis of greedy k-independent set deletion",
    )
    parser.add_argument(
        "--format", choices=["text", "json", "csv"], default="text"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_k(p):
        p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("bound", help="worst-case bound b_k(D)")
    add_k(p)
    p.add_argument("--degrees", required=True)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("omega", help="one reduction step")
    add_k(p)
    p.add_argument("--degrees", required=True)
    p.set_defaults(func=cmd_omega)

    p = sub.add_parser("trace", help="full decrement schedule")
    add_k(p)
    p.add_argument("--degrees", required=True)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("construct", help="worst-case witness multigraph")
    add_k(p)
    p.add_argument("--degrees", required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="replay or exhaust greedy runs")
    add_k(p)
    p.add_argument("--graph", required=True, help="multigraph JSON file")
    p.add_argument("--script", help="deletion script JSON file")
    p.add_argument("--exhaustive", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ferrers", help="Ferrers diagram")
    add_k(p)
    p.add_argument("--degrees", required=True)
    p.set_defaults(func=cmd_ferrers)

    p = sub.add_parser("lab", help="order-theoretic oracles")
    labsub = p.add_subparsers(dest="lab_command", required=True)
    q = labsub.add_parser("precedes")
    add_k(q)
    q.add_argument("--d", required=True)
    q.add_argument("--e", required=True)
    q.set_defaults(func=cmd_lab_precedes)
    q = labsub.add_parser("pseudo-reductions")
    add_k(q)
    q.add_argument("--degrees", required=True)
    q.set_defaults(func=cmd_lab_pseudo)

    p = sub.add_parser("covering", help="iterated covering lower bound")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--kappa", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, default=1)
    p.add_argument("--start", type=int)
    p.set_defaults(func=cmd_covering)

    p = sub.add_parser("covering-scan", help="scan (kappa, v) grid")
    p.add_argument("--kappa-min", type=int, required=True)
    p.add_argument("--kappa-max", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, default=1)
    p.add_argument("--priors", help="prior bounds CSV")
    p.set_defaults(func=cmd_covering_scan)

    p = sub.add_parser("loops", help="loop-multigraph minimum alpha_k")
    add_k(p)
    p.add_argument("--degrees", required=True)
    p.add_argument("--construct", action="store_true")
    p.set_defaults(func=cmd_loops)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except LimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except BrokenPipeError:
        # the reader stopped early (e.g. `| head`); send the rest of stdout,
        # and the interpreter's final flush, to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
