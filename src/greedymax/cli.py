"""Command-line front end.

Subcommands map 1:1 onto the library: bound / omega / trace / construct /
verify expose the reduction chain and witness machinery, lab exposes the
order-theoretic oracles, covering and covering-scan the pair-covering
bounds, and loops the loop-multigraph variant.  Exit codes: 0 success,
2 input error, 3 resource guard exceeded.

A subcommand is added as one ``COMMANDS`` row (name, help, arguments,
handler).  A handler returns ``(as_json, text)``, and ``main`` prints
``as_json()`` under ``--format json`` (unless it is None), else ``text()``.
Both are zero-argument callables, so only the output printed is built; the
handler does all work that can fail before it returns.  ``bound``,
``omega``, ``trace`` and ``lab pseudo-reductions`` write their JSON from
runs with ``write_runs``, as their text is written; every other payload
goes through ``json.dumps``.  Handlers import the heavier modules they use,
so ``bound`` does not load them.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import InputError, LimitError
from .multiset import parse_degrees, render_ferrers, write_runs
from .omega import b as omega_b
from .omega import decrement_sequence, omega

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_LIMIT = 3


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    # ValueError covers malformed JSON, bytes that are not UTF-8 and
    # integers too long to convert; deep nesting raises RecursionError
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read JSON file {path}: {exc}") from exc


def _section(data, key: str):
    """data[key] when data is a whole ``construct`` output, else data."""
    return data[key] if isinstance(data, dict) and key in data else data


def _array(D) -> str:
    """The values of D as a JSON array, spaced as ``json.dumps`` spaces it."""
    return f"[{write_runs(D.items, ', ')}]"


def _object(**fields) -> str:
    """A JSON object of fields whose values are ints or JSON text, spaced
    as ``json.dumps`` spaces it."""
    return "{%s}" % ", ".join(f'"{key}": {value}' for key, value in fields.items())


def cmd_bound(args):
    D = parse_degrees(args.degrees)
    trace = omega_b(D, args.k)
    return lambda: _object(
        k=trace.k, b=trace.b, p=trace.p,
        chain=f"[{', '.join(map(_array, trace.chain))}]",
    ), lambda: "\n".join(
        [f"b = {trace.b}  (p = {trace.p}, n = {len(D)})"]
        + [f"  chain[{i}] = {step}" for i, step in enumerate(trace.chain)]
    )


def cmd_omega(args):
    out = omega(parse_degrees(args.degrees), args.k)
    return lambda: _object(k=args.k, omega=_array(out)), lambda: str(out)


def cmd_trace(args):
    trace = decrement_sequence(parse_degrees(args.degrees), args.k)
    as_json = lambda: _object(
        k=trace.k, input=_array(trace.input), m=trace.m, s=trace.s,
        a=f"[{trace.write_schedule(', ')}]", omega=_array(trace.omega),
        degenerate=str(trace.degenerate).lower(),
    )
    if trace.degenerate:
        return as_json, lambda: f"degenerate: omega = {trace.omega}"
    return as_json, lambda: (
        f"a = ({trace.write_schedule(',')})  s = {trace.s}\n"
        f"omega = {trace.omega}"
    )


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
    return functools.partial(json.dumps, payload), lambda: (
        f"graph: {json.dumps(payload['graph'])}\n"
        f"deletions: {script}\n"
        f"survivors: {payload['b']}"
    )


def cmd_verify(args):
    from . import graphs

    # --graph and --script take either their own files or one construct output
    G = graphs.Multigraph.from_json(_section(_load_json(args.graph), "graph"))
    if args.exhaustive:
        size, script = graphs.max_worst_case(G, args.k)
        payload = {"k": args.k, "worst_case": size, "script": script}
        return functools.partial(json.dumps, payload), lambda: (
            f"worst case over all runs: {size}  (script {script})"
        )
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
    return functools.partial(json.dumps, payload), lambda: (
        f"survivors ({len(survivors)}): {survivors}\nlog: {log}"
    )


def cmd_ferrers(args):
    # the diagram is the output in every format
    diagram = render_ferrers(parse_degrees(args.degrees), args.k)
    return None, lambda: diagram


def cmd_lab_precedes(args):
    from . import orderlab

    result = orderlab.precedes(parse_degrees(args.d), parse_degrees(args.e), args.k)
    payload = {"k": args.k, "precedes": result}
    return functools.partial(json.dumps, payload), lambda: str(result).lower()


def cmd_lab_pseudo(args):
    from . import orderlab

    outs = orderlab.pseudo_reductions(parse_degrees(args.degrees), args.k)
    return lambda: _object(
        k=args.k, pseudo_reductions=f"[{', '.join(map(_array, outs))}]"
    ), lambda: "\n".join(str(o) for o in outs)


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

    def text():
        lines = [f"C_{args.lam}({args.v},{args.kappa}) >= {final}"]
        for r in reports:
            lines.append(
                f"  z={r.z}: r={r.r} d={r.d} s={r.s} ell={r.ell} "
                f"k={r.k} b={r.b} contradiction={r.contradiction}"
                + (f" ({r.reason})" if r.reason else "")
            )
        return "\n".join(lines)

    return functools.partial(json.dumps, payload), text


def cmd_covering_scan(args):
    from . import covering

    priors = covering.load_priors(args.priors) if args.priors else None
    rows = covering.scan_table(args.kappa_min, args.kappa_max, args.lam, priors)

    def text():
        if args.format == "csv":
            lines = [",".join(covering.CSV_COLUMNS)]
            lines += [",".join(map(str, row)) for row in rows]
        else:
            lines = [f"{'kappa':>5} {'v':>5} {'d':>3} {'r':>3} {'ell':>4} {'prev':>5} {'new':>5}  source"]
            lines += [
                f"{r.kappa:>5} {r.v:>5} {r.d:>3} {r.r:>3} {r.ell:>4} "
                f"{r.previous:>5} {r.new:>5}  {r.source}"
                for r in rows
            ]
        return "\n".join(lines)

    return functools.partial(json.dumps, rows), text


def cmd_loops(args):
    from . import loops

    D = parse_degrees(args.degrees)
    value = loops.alpha_k_min_loops(D, args.k)
    payload: dict = {"k": args.k, "alpha_min": value}
    head = f"minimum alpha_{args.k} over loop realizations: {value}"
    as_json = functools.partial(json.dumps, payload)
    if not args.construct:
        return as_json, lambda: head
    payload["graph"] = loops.construct_extremal_loop_multigraph(D, args.k).to_json()
    return as_json, lambda: f"{head}\nextremal graph: {json.dumps(payload['graph'])}"


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
        as_json, text = args.func(args)
        print(text() if as_json is None or args.format != "json" else as_json())
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
