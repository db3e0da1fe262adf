"""Command-line front end.

Subcommands map 1:1 onto the library: bound / omega / trace / construct /
verify expose the reduction chain and witness machinery, lab exposes the
order-theoretic oracles, covering and covering-scan the pair-covering
bounds, and loops the loop-multigraph variant.  Exit codes: 0 success,
2 input error, 3 resource guard exceeded.

A subcommand is added as one ``COMMANDS`` row (name, help, arguments,
handler).  A handler returns ``(payload, text)``, and ``main`` prints the
payload as JSON under ``--format json`` (unless it is None), else the text.
Handlers import the heavier modules they use, so ``bound`` does not load them.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

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


def cmd_bound(args):
    D = parse_degrees(args.degrees)
    trace = omega_b(D, args.k)
    lines = [f"b = {trace.b}  (p = {trace.p}, n = {len(D)})"]
    lines += [f"  chain[{i}] = {step}" for i, step in enumerate(trace.chain)]
    return trace.to_json(), "\n".join(lines)


def cmd_omega(args):
    out = omega(parse_degrees(args.degrees), args.k)
    return {"k": args.k, "omega": out.values()}, str(out)


def cmd_trace(args):
    trace = decrement_sequence(parse_degrees(args.degrees), args.k)
    if trace.degenerate:
        text = f"degenerate: omega = {trace.omega}"
    else:
        text = (
            f"a = ({','.join(map(str, trace.a))})  s = {trace.s}\n"
            f"omega = {trace.omega}"
        )
    return trace.to_json(), text


def cmd_construct(args):
    from . import graphs

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
    return payload, text


def cmd_verify(args):
    from . import graphs

    # --graph and --script take either their own files or one construct output
    G = graphs.Multigraph.from_json(_section(_load_json(args.graph), "graph"))
    if args.exhaustive:
        size, script = graphs.max_worst_case(G, args.k)
        payload = {"k": args.k, "worst_case": size, "script": script}
        return payload, f"worst case over all runs: {size}  (script {script})"
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
    return payload, f"survivors ({len(survivors)}): {survivors}\nlog: {log}"


def cmd_ferrers(args):
    # the diagram is the output in every format
    return None, render_ferrers(parse_degrees(args.degrees), args.k)


def cmd_lab_precedes(args):
    from . import orderlab

    result = orderlab.precedes(parse_degrees(args.d), parse_degrees(args.e), args.k)
    return {"k": args.k, "precedes": result}, str(result).lower()


def cmd_lab_pseudo(args):
    from . import orderlab

    outs = orderlab.pseudo_reductions(parse_degrees(args.degrees), args.k)
    payload = {"k": args.k, "pseudo_reductions": [o.values() for o in outs]}
    return payload, "\n".join(str(o) for o in outs)


def cmd_covering(args):
    from . import covering

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
    return payload, "\n".join(lines)


def cmd_covering_scan(args):
    from . import covering

    priors = covering.load_priors(args.priors) if args.priors else None
    rows = covering.scan_table(args.kappa_min, args.kappa_max, args.lam, priors)
    table = [r.to_csv_row() for r in rows]
    if args.format == "csv":
        lines = [",".join(covering.CSV_COLUMNS)]
        lines += [",".join(map(str, row)) for row in table]
    else:
        lines = [f"{'kappa':>5} {'v':>5} {'d':>3} {'r':>3} {'ell':>4} {'prev':>5} {'new':>5}  source"]
        lines += [
            f"{r.kappa:>5} {r.v:>5} {r.d:>3} {r.r:>3} {r.ell:>4} "
            f"{r.previous:>5} {r.new:>5}  {r.source}"
            for r in rows
        ]
    return table, "\n".join(lines)


def cmd_loops(args):
    from . import loops

    D = parse_degrees(args.degrees)
    value = loops.alpha_k_min_loops(D, args.k)
    payload: dict = {"k": args.k, "alpha_min": value}
    text = f"minimum alpha_{args.k} over loop realizations: {value}"
    if args.construct:
        G = loops.construct_extremal_loop_multigraph(D, args.k)
        payload["graph"] = G.to_json()
        text += f"\nextremal graph: {json.dumps(G.to_json())}"
    return payload, text


_K = ("--k", {"type": int, "required": True})
_DEGREES = ("--degrees", {"required": True})
_LAMBDA = ("--lambda", {"dest": "lam", "type": int, "default": 1})

# (name, help, arguments, handler), in the order `--help` lists them.  A row
# without a handler is a group: rows named "<group> <sub>" nest under it.
COMMANDS = (
    ("bound", "worst-case bound b_k(D)", (_K, _DEGREES), cmd_bound),
    ("omega", "one reduction step", (_K, _DEGREES), cmd_omega),
    ("trace", "full decrement schedule", (_K, _DEGREES), cmd_trace),
    ("construct", "worst-case witness multigraph", (_K, _DEGREES), cmd_construct),
    ("verify", "replay or exhaust greedy runs", (
        _K,
        ("--graph", {"required": True, "help": "multigraph JSON file"}),
        ("--script", {"help": "deletion script JSON file"}),
        ("--exhaustive", {"action": "store_true"}),
    ), cmd_verify),
    ("ferrers", "Ferrers diagram", (_K, _DEGREES), cmd_ferrers),
    ("lab", "order-theoretic oracles", (), None),
    ("lab precedes", None, (_K, ("--d", {"required": True}), ("--e", {"required": True})),
     cmd_lab_precedes),
    ("lab pseudo-reductions", None, (_K, _DEGREES), cmd_lab_pseudo),
    ("covering", "iterated covering lower bound", (
        ("--v", {"type": int, "required": True}),
        ("--kappa", {"type": int, "required": True}),
        _LAMBDA,
        ("--start", {"type": int}),
    ), cmd_covering),
    ("covering-scan", "scan (kappa, v) grid", (
        ("--kappa-min", {"type": int, "required": True}),
        ("--kappa-max", {"type": int, "required": True}),
        _LAMBDA,
        ("--priors", {"help": "prior bounds CSV"}),
    ), cmd_covering_scan),
    ("loops", "loop-multigraph minimum alpha_k",
     (_K, _DEGREES, ("--construct", {"action": "store_true"})), cmd_loops),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser for ``COMMANDS``, built once per process."""
    parser = argparse.ArgumentParser(
        prog="greedymax",
        description="Worst-case analysis of greedy k-independent set deletion",
    )
    parser.add_argument("--format", choices=["text", "json", "csv"], default="text")
    subparsers = {"": parser.add_subparsers(dest="command", required=True)}
    for name, help_, arguments, handler in COMMANDS:
        group, _, leaf = name.rpartition(" ")
        # a help of None would still list the subcommand, so leave it out
        p = subparsers[group].add_parser(leaf, **({"help": help_} if help_ else {}))
        for flag, options in arguments:
            p.add_argument(flag, **options)
        if handler is None:
            subparsers[name] = p.add_subparsers(dest=f"{name}_command", required=True)
        else:
            p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, text = args.func(args)
        print(text if payload is None or args.format != "json" else json.dumps(payload))
    except (InputError, LimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT if isinstance(exc, InputError) else EXIT_LIMIT
    except BrokenPipeError:
        # the reader stopped early (e.g. `| head`); send the rest of stdout,
        # and the interpreter's final flush, to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
