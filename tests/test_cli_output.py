"""The output of ``bound``, ``omega``, ``trace`` and ``lab pseudo-reductions``,
byte for byte, against the expanded form: ``json.dumps`` of payloads that
list every value, and text that converts every value on its own.  The CLI
writes both formats from runs instead, so any slip in that writer shows
here.  The schedule ``a`` of the reference comes from the unit-at-a-time
schedule in ``unit_schedule``, not from the trace's segments."""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unit_schedule as ref
from greedymax.cli import main
from greedymax.errors import InputError, LimitError
from greedymax.multiset import MAX_DEGREE, MAX_DEGREE_SUM, parse_degrees
from greedymax.omega import b, decrement_sequence, omega
from greedymax.orderlab import pseudo_reductions

COMMANDS = (["bound"], ["omega"], ["trace"], ["lab", "pseudo-reductions"])


def values(D):
    return [v for v, m in D.items for _ in range(m)]


def braces(D):
    return "{%s}" % ",".join(str(v) for v in values(D))


def expanded(cmd, k, D, schedule):
    """(payload, text) of one request, every value listed on its own."""
    if cmd == "bound":
        t = b(D, k)
        payload = {"k": t.k, "b": t.b, "p": t.p, "chain": [values(c) for c in t.chain]}
        return payload, "\n".join(
            [f"b = {t.b}  (p = {t.p}, n = {len(D)})"]
            + [f"  chain[{i}] = {braces(c)}" for i, c in enumerate(t.chain)]
        )
    if cmd == "omega":
        out = omega(D, k)
        return {"k": k, "omega": values(out)}, braces(out)
    if cmd == "trace":
        t = decrement_sequence(D, k)
        a = [] if t.degenerate else list(schedule(D, k))
        payload = {
            "k": k, "input": values(D), "m": t.m, "s": t.s, "a": a,
            "omega": values(t.omega), "degenerate": t.degenerate,
        }
        if t.degenerate:
            return payload, f"degenerate: omega = {braces(t.omega)}"
        return payload, f"a = ({','.join(map(str, a))})  s = {t.s}\nomega = {braces(t.omega)}"
    outs = pseudo_reductions(D, k)
    return {"k": k, "pseudo_reductions": [values(o) for o in outs]}, "\n".join(
        braces(o) for o in outs
    )


def unit_schedule(D, k):
    return ref.decrement_sequence(D, k, keep_intermediates=False)["a"]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def check(cmd, k, degrees, schedule=unit_schedule):
    """Both formats of one request match the expanded reference."""
    try:
        payload, text = expanded(cmd[-1], k, parse_degrees(degrees), schedule)
        want = {"json": (0, json.dumps(payload) + "\n"), "text": (0, text + "\n")}
    except (InputError, LimitError) as exc:
        code = 2 if isinstance(exc, InputError) else 3
        want = {"json": (code, ""), "text": (code, "")}
    for fmt, expected in want.items():
        argv = ["--format", fmt, *cmd, "--k", str(k), "--degrees", degrees]
        assert run(argv) == expected, argv


def corpus(seed, count):
    """Seeded degree lists: small random, regular and few large degrees,
    in the comma form and as JSON arrays; the exhaustive pseudo-reductions
    get small sums only."""
    rng = random.Random(seed)
    for i in range(count):
        cmd, shape = COMMANDS[i % 4], i // 4 % 3
        if shape == 0 or cmd[-1] == "pseudo-reductions":
            vals = [rng.randint(0, 5) for _ in range(rng.randint(1, 7))]
        elif shape == 1:
            t = rng.randint(1, 30)
            vals = [t] * (t + rng.randint(0, 2))
        else:
            vals = sorted(rng.randint(0, 4000) for _ in range(rng.randint(2, 5)))
            vals[-1] = min(vals[-1], sum(vals[:-1]))
        if sum(vals) % 2:
            vals[0] += 1
        rng.shuffle(vals)
        degrees = json.dumps(vals) if rng.random() < 0.3 else ",".join(map(str, vals))
        yield cmd, rng.randint(1, max(vals) + 1), degrees


def test_seeded_corpus_matches_the_expanded_form():
    for cmd, k, degrees in corpus(seed=26, count=160):
        check(cmd, k, degrees)


NEAR_CAP = f"{MAX_DEGREE - 1},{MAX_DEGREE - 1},2"


@pytest.mark.parametrize("cmd", COMMANDS, ids=" ".join)
@pytest.mark.parametrize("k, degrees", [
    (1, "0,0,0"),  # all zeros
    (3, "3,3,0,0,0"),  # a degenerate trace, "a": []
    (9, "1,2,2,4,4,5,6"),  # k above the maximum
    (3, "[6, 5,4,4,2 ,2,1]"),  # a JSON array
    (2, "[]"),  # the empty sequence
    (1, NEAR_CAP),  # degrees near 2^31
    (5, f"{MAX_DEGREE},{MAX_DEGREE},{MAX_DEGREE - 1},{MAX_DEGREE - 1}"),
    (1, "13,13"),  # the largest sum pseudo-reductions takes
])
def test_edge_cases_match_the_expanded_form(cmd, k, degrees):
    check(cmd, k, degrees)


def test_trace_just_under_the_sum_guard():
    # {M,M,2} at k = 1: one M sinks to 2, then both 2s sink to 1 and fall to 0
    closed = lambda M: (*range(M, 2, -1), 2, 2, 1, 1)
    for M in range(2, 40):
        assert closed(M) == unit_schedule(parse_degrees(f"{M},{M},2"), 1)
    M = MAX_DEGREE_SUM // 2 - 1  # sum(D) = 2M + 2 is the guard itself
    check(["trace"], 1, f"{M},{M},2", lambda D, k: closed(M))


@settings(max_examples=60, deadline=None)
@given(
    vals=st.lists(st.integers(0, 3000), min_size=1, max_size=5),
    k=st.integers(1, 40),
)
def test_schedule_text_matches_the_expanded_schedule(vals, k):
    if sum(vals) % 2:
        vals[0] += 1
    D = parse_degrees(",".join(map(str, vals)))
    if not D.is_graphical() or D.is_trivial(k):
        return
    t = decrement_sequence(D, k)
    assert t.write_schedule(",") == ",".join(map(str, t.a))
    assert t.write_schedule(", ") == json.dumps(list(t.a))[1:-1]
