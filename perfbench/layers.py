"""Per-layer metrics computed from a traced pass.

A span's self time is its duration minus the durations of its direct
children; calls are strictly nested in one thread, so children never
overlap.  "Outer" totals count only spans whose parent has another name,
so recursion and nested parsing are not counted twice.  Totals cover one
pass over the workload's pool, so counts repeat exactly for a given seed.
"""

from __future__ import annotations

import statistics
from array import array
from collections import Counter, defaultdict

from tracer import Tracer


def _median_ms(values_ns: list[int]) -> float:
    return statistics.median(values_ns) / 1e6 if values_ns else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, op_tags: list[tuple[str, ...]]) -> dict:
    names, name, parents = tr.names, tr.name, tr.parents
    starts, ends, errors, ops = tr.starts, tr.ends, tr.errors, tr.ops
    n = len(name)
    dur = array("q", (ends[i] - starts[i] for i in range(n)))
    child = array("q", bytes(8 * n))
    for i in range(n):
        if parents[i] >= 0:
            child[parents[i]] += dur[i]

    layer_of = [s.split(".", 1)[0] for s in names]
    calls: Counter = Counter()
    self_by_name: Counter = Counter()
    self_by_layer: Counter = Counter()
    outer: Counter = Counter()
    outer_by_layer: Counter = Counter()
    by_name: dict[str, list[int]] = defaultdict(list)
    omega_errors = 0
    omega_under_covering = 0
    for i in range(n):
        nid = name[i]
        label = names[nid]
        p = parents[i]
        pid = name[p] if p >= 0 else -1
        own = dur[i] - child[i]
        calls[label] += 1
        self_by_name[label] += own
        self_by_layer[layer_of[nid]] += own
        if pid != nid:
            outer[label] += dur[i]
        if label in ("cli.main", "cli.build_parser"):
            by_name[label].append(i)
        parent_layer = layer_of[pid] if pid >= 0 else ""
        if parent_layer != layer_of[nid]:
            outer_by_layer[layer_of[nid]] += dur[i]
        if layer_of[nid] == "omega":
            if errors[i] and parent_layer != "omega":
                omega_errors += 1
            if parent_layer == "covering":
                omega_under_covering += dur[i]

    mains = by_name["cli.main"]
    per_cmd: dict[str, list[int]] = defaultdict(list)
    for i in mains:
        for tag in op_tags[ops[i]]:
            per_cmd[tag].append(dur[i])
    count = tr.counts
    units = count["omega.unit_decrements"]
    cells = calls["covering.covering_lower_bound"]
    covering_ns = outer_by_layer["covering"]
    s = 1e-9
    m = {
        "cli.requests": (len(mains), "count"),
        "cli.build_parser_ms": (
            _median_ms([dur[i] for i in by_name["cli.build_parser"]]), "ms"),
        "cli.self_ms": (_median_ms([dur[i] - child[i] for i in mains]), "ms"),
        "cli.bound_p50_ms": (_median_ms(per_cmd["bound"]), "ms"),
        "cli.omega_p50_ms": (_median_ms(per_cmd["omega"]), "ms"),
        "cli.trace_p50_ms": (_median_ms(per_cmd["trace"]), "ms"),
        "cli.large_degree_p50_ms": (_median_ms(per_cmd["large"]), "ms"),
        "multiset.parse_s": (outer["multiset.parse"] * s, "s"),
        "multiset.from_counts_calls": (calls["multiset.from_counts"], "count"),
        "multiset.self_s": (self_by_layer["multiset"] * s, "s"),
        "omega.b_calls": (calls["omega.b"], "count"),
        "omega.omega_calls": (calls["omega.omega"], "count"),
        "omega.decrement_sequence_calls": (
            calls["omega.decrement_sequence"], "count"),
        "omega.chain_steps": (count["omega.chain_steps"], "count"),
        "omega.unit_decrements": (units, "count"),
        "omega.self_s": (self_by_layer["omega"] * s, "s"),
        "omega.ns_per_unit_decrement": (
            _ratio(self_by_layer["omega"], units), "ns"),
        "omega.errors": (omega_errors, "count"),
        "graphs.construct_calls": (
            calls["graphs.construct_worst_case"], "count"),
        "graphs.construct_self_s": (
            self_by_name["graphs.construct_worst_case"] * s, "s"),
        "graphs.realize_s": (outer["graphs.realize"] * s, "s"),
        "graphs.max_run_s": (outer["graphs.max_run"] * s, "s"),
        "graphs.serialise_s": (
            (outer["graphs.to_json"] + outer["graphs.from_json"]) * s, "s"),
        "graphs.edges": (count["graphs.edges"], "count"),
        "graphs.max_worst_case_s": (outer["graphs.max_worst_case"] * s, "s"),
        "covering.cells": (cells, "count"),
        "covering.z_tests": (calls["covering.apply_bound"], "count"),
        "covering.z_tests_per_cell": (
            _ratio(calls["covering.apply_bound"], cells), "count"),
        "covering.self_s": (self_by_layer["covering"] * s, "s"),
        "covering.span_s": (covering_ns * s, "s"),
        "covering.omega_share": (
            _ratio(omega_under_covering, covering_ns), "ratio"),
        "orderlab.precedes_s": (outer["orderlab.precedes"] * s, "s"),
        "orderlab.bfs_states": (
            count[("orderlab.applicable_steps", "orderlab.precedes")], "count"),
        "orderlab.pseudo_reductions_s": (
            outer["orderlab.pseudo_reductions"] * s, "s"),
        "orderlab.candidates": (count["orderlab.candidates"], "count"),
        "loops.realizations": (count["loops.enumerate.items"], "count"),
        "loops.enumerate_s": (outer["loops.enumerate"] * s, "s"),
        "loops.bruteforce_calls": (calls["loops.alpha_k_bruteforce"], "count"),
        "loops.bruteforce_s": (outer["loops.alpha_k_bruteforce"] * s, "s"),
    }
    return m
