"""Span tracing installed from outside the package.

``Tracer.install`` replaces functions and methods of the loaded
``greedymax`` modules with wrappers that record one span per call: name,
start, end, parent span and operation id.  A function is replaced under
every module attribute that holds it, so calls through re-exports and
``from ... import`` aliases are caught, and so are recursive calls through
the module global (``graphs.construct_worst_case``).  Generator functions
get one span per resume, so their time is measured where the work happens.
Spans live in flat arrays until ``write`` is called; ``uninstall`` puts
every original back.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array
from collections import Counter

# (module, attribute, span name); a "Class.method" attribute wraps a method.
TARGETS = [
    ("cli", "main", "cli.main"),
    ("cli", "build_parser", "cli.build_parser"),
    ("cli", "_parse_degree_arg", "multiset.parse"),
    ("multiset", "parse_degrees", "multiset.parse"),
    ("multiset", "DegreeSequence.from_values", "multiset.from_values"),
    ("multiset", "DegreeSequence.from_counts", "multiset.from_counts"),
    ("multiset", "DegreeSequence.without_one", "multiset.without_one"),
    ("multiset", "DegreeSequence.with_one", "multiset.with_one"),
    ("multiset", "DegreeSequence.sigma", "multiset.sigma"),
    ("multiset", "DegreeSequence.is_graphical", "multiset.is_graphical"),
    ("multiset", "DegreeSequence.is_trivial", "multiset.is_trivial"),
    ("omega", "b", "omega.b"),
    ("omega", "omega", "omega.omega"),
    ("omega", "decrement_sequence", "omega.decrement_sequence"),
    ("graphs", "construct_worst_case", "graphs.construct_worst_case"),
    ("graphs", "realize", "graphs.realize"),
    ("graphs", "max_run", "graphs.max_run"),
    ("graphs", "max_worst_case", "graphs.max_worst_case"),
    ("graphs", "Multigraph.to_json", "graphs.to_json"),
    ("graphs", "Multigraph.from_json", "graphs.from_json"),
    ("covering", "schonheim", "covering.schonheim"),
    ("covering", "covering_lower_bound", "covering.covering_lower_bound"),
    ("covering", "apply_bound", "covering.apply_bound"),
    ("covering", "excess_profile", "covering.excess_profile"),
    ("orderlab", "precedes", "orderlab.precedes"),
    ("orderlab", "applicable_steps", "orderlab.applicable_steps"),
    ("orderlab", "pseudo_reductions", "orderlab.pseudo_reductions"),
    ("loops", "alpha_k_min_loops", "loops.alpha_k_min_loops"),
    ("loops", "alpha_k_bruteforce", "loops.alpha_k_bruteforce"),
    ("loops", "enumerate_loop_realizations", "loops.enumerate"),
    ("loops", "construct_extremal_loop_multigraph", "loops.construct_extremal"),
]

ROOT = "bench.op"


def _record_omega(tr, idx, args, result):
    # A non-degenerate application performs max(D) unit decrements; the
    # degenerate branch returns all zeros without decrementing.
    if len(result) and result.max_value > 0:
        tr.counts["omega.unit_decrements"] += args[0].max_value


def _record_decrements(tr, idx, args, result):
    if not result.degenerate:
        tr.counts["omega.unit_decrements"] += result.s


def _record_b(tr, idx, args, result):
    tr.counts["omega.chain_steps"] += result.p


def _record_construct(tr, idx, args, result):
    if tr.name_of(tr.parents[idx]) != "graphs.construct_worst_case":
        tr.counts["graphs.edges"] += len(result[0].edges)


def _record_candidates(tr, idx, args, result):
    tr.counts["orderlab.candidates"] += len(result)


HOOKS = {
    "omega.omega": _record_omega,
    "omega.decrement_sequence": _record_decrements,
    "omega.b": _record_b,
    "graphs.construct_worst_case": _record_construct,
    "orderlab.pseudo_reductions": _record_candidates,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parents = array("i")
        self.ops = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.errors = bytearray()
        self.stack = [-1]
        self.op_id = -1
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording ------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def name_of(self, idx: int) -> str:
        return self.names[self.name[idx]] if idx >= 0 else ""

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parents.append(self.stack[-1])
        self.ops.append(self.op_id)
        self.ends.append(0)
        self.errors.append(0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int, failed: bool = False) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self.stack.pop()
        if failed:
            self.errors[idx] = 1

    def run_op(self, op_id: int, fn, *args):
        """Run one benchmark operation under a root span."""
        self.op_id = op_id
        return self.wrap(fn, ROOT)(*args)

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        hook = HOOKS.get(name)
        open_, close = self._open, self._close

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                self.counts[(name, self.name_of(self.stack[-1]))] += 1
                it = fn(*args, **kwargs)
                while True:
                    idx = open_(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        close(idx)
                        return
                    except BaseException:
                        close(idx, True)
                        raise
                    close(idx)
                    self.counts[name + ".items"] += 1
                    yield item
            return gen_wrapper

        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close(idx, True)
                raise
            close(idx)
            if hook is not None:
                hook(self, idx, args, result)
            return result
        return wrapper

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        mods = {k.split(".", 1)[1]: m for k, m in sys.modules.items()
                if k.startswith("greedymax.")}
        for mod_name, attr, span in TARGETS:
            owner = mods.get(mod_name)
            cls_name, _, meth = attr.rpartition(".")
            holder = getattr(owner, cls_name, None) if cls_name else owner
            if meth not in getattr(holder, "__dict__", {}):
                # renamed or removed since the benchmark was written: its
                # metrics read 0 rather than the traced run failing
                self.missing.append(f"{mod_name}.{attr}")
                continue
            if cls_name:
                cls = holder
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self.wrap(raw.__func__, span))
                else:
                    new = self.wrap(raw, span)
                self._patched.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(original, span)
            for mod in list(mods.values()) + [sys.modules["greedymax"]]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- output ---------------------------------------------------------

    def write(self, path: str) -> None:
        """Tab-separated spans, gzip-compressed, one line per span."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\top\tname\tstart_ns\tend_ns\terror\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.parents[i]}\t{self.ops[i]}\t"
                         f"{names[self.name[i]]}\t{self.starts[i]}\t"
                         f"{self.ends[i]}\t{self.errors[i]}\n")
