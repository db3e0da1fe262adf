import json
import time

import pytest

import unit_schedule as ref
from conftest import graphical_sequences, random_graphical, schedule_states
from greedymax.cli import main
from greedymax.errors import InputError, LimitError
from greedymax.multiset import MAX_DEGREE_SUM, make_degree_sequence
from greedymax.omega import b, chain_length, decrement_sequence, omega

D_EX = make_degree_sequence([1, 2, 2, 4, 4, 5, 6])


def test_decrement_sequence_worked_example():
    t = decrement_sequence(D_EX, 3)
    assert t.a == (5, 4, 4, 4, 1, 2, 1, 2, 1, 3, 2, 1, 3, 2, 1, 3, 2, 1)
    assert t.s == 18
    assert not t.degenerate
    assert t.omega == make_degree_sequence([0, 1, 2, 3, 3, 3])


def test_decrement_sequence_degenerate_branch():
    t = decrement_sequence(make_degree_sequence([0, 0, 0, 3, 3]), 3)
    assert t.degenerate
    assert t.a == ()
    assert t.omega == make_degree_sequence([0, 0, 0, 0])


def test_decrement_sequence_prefix():
    t = decrement_sequence(make_degree_sequence([0, 1, 2, 3, 3, 3]), 3)
    assert t.a[:3] == (1, 2, 1)


def test_decrement_sequence_rejects_bad_input():
    with pytest.raises(InputError):
        decrement_sequence(make_degree_sequence([0, 0]), 3)  # trivial
    with pytest.raises(InputError):
        decrement_sequence(make_degree_sequence([3]), 3)  # not graphical


def test_decrement_sequence_guard_admits_its_bound():
    D = make_degree_sequence([2**19] * 4)
    assert D.total == MAX_DEGREE_SUM
    t = decrement_sequence(D, 3)
    # the three copies left sink to 3 together, then fall to 0 one by one
    expected = [x for x in range(2**19, 3, -1) for _ in range(3)] + [3, 2, 1] * 3
    assert t.a == tuple(expected)
    assert t.s == len(t.a)
    with pytest.raises(LimitError):
        decrement_sequence(make_degree_sequence([2**19] * 4 + [2]), 3)


def test_omega_chain_worked_example():
    s1 = omega(D_EX, 3)
    assert s1 == make_degree_sequence([0, 1, 2, 3, 3, 3])
    s2 = omega(s1, 3)
    assert s2 == make_degree_sequence([0, 0, 0, 3, 3])
    s3 = omega(s2, 3)
    assert s3 == make_degree_sequence([0, 0, 0, 0])


def test_omega_empty_rejected():
    with pytest.raises(InputError):
        omega(make_degree_sequence([]), 3)


def test_omega_trivial_input_gives_zeros():
    assert omega(make_degree_sequence([1, 1, 0]), 2) == make_degree_sequence([0, 0])


def test_omega_on_all_zero_input():
    # no positive element: the step drops a zero and keeps the other zeros
    assert omega(make_degree_sequence([0, 0]), 1) == make_degree_sequence([0])
    assert omega(make_degree_sequence([0]), 1) == make_degree_sequence([])


def test_b_worked_example():
    t = b(D_EX, 3)
    assert t.b == 4 and t.p == 3
    assert [c.values() for c in t.chain] == [
        [1, 2, 2, 4, 4, 5, 6],
        [0, 1, 2, 3, 3, 3],
        [0, 0, 0, 3, 3],
        [0, 0, 0, 0],
    ]


def test_b_trivial_input():
    t = b(make_degree_sequence([0, 0]), 1)
    assert t.b == 2 and t.p == 0


def test_b_covering_example():
    D = make_degree_sequence([16] * 24 + [3] * 26)
    assert b(D, 3).b == 17


def test_b_rejects_non_graphical():
    with pytest.raises(InputError):
        b(make_degree_sequence([3]), 3)


CORE = {
    "omega": omega,
    "b": lambda D, k: b(D, k).b,
    "chain_length": chain_length,
    "decrement_sequence": decrement_sequence,
}
EMPTY = make_degree_sequence([])
OVER_GUARD = make_degree_sequence([2**19] * 4 + [2])  # sum 2^21 + 2
K_ERROR = (InputError, "k must be a positive integer")
NOT_GRAPHICAL = (InputError, "input is not graphical")
EMPTY_ERROR = (InputError, "cannot reduce the empty sequence")
TRIVIAL = (InputError, "input is trivial")


@pytest.mark.parametrize(
    "name,D,k,expected",
    [(name, EMPTY, 0, K_ERROR) for name in CORE]
    + [(name, make_degree_sequence([3]), 1, NOT_GRAPHICAL) for name in CORE]
    + [
        ("omega", EMPTY, 1, EMPTY_ERROR),
        ("decrement_sequence", EMPTY, 1, EMPTY_ERROR),
        ("b", EMPTY, 1, 0),
        ("chain_length", EMPTY, 1, 0),
        ("decrement_sequence", make_degree_sequence([0, 0]), 1, TRIVIAL),
        ("decrement_sequence", OVER_GUARD, 2**20, TRIVIAL),
        ("decrement_sequence", OVER_GUARD, 3,
         (LimitError, "degree sum 2097154 exceeds guard 2097152")),
    ],
)
def test_core_errors_come_in_order(name, D, k, expected):
    # k first, then graphicality, then emptiness, triviality and the sum guard
    try:
        result = CORE[name](D, k)
    except (InputError, LimitError) as exc:
        result = (type(exc), str(exc))
    assert result == expected


def test_btrace_json_shape(capsys):
    # the JSON of bound and trace is written from runs, so read it back
    def payload(cmd):
        assert main(["--format", "json", cmd, "--k", "3", "--degrees", "6,5,4,4,2,2,1"]) == 0
        return json.loads(capsys.readouterr().out)

    bound = payload("bound")
    assert bound["k"] == 3 and bound["b"] == 4 and bound["p"] == 3
    assert bound["chain"][0] == [1, 2, 2, 4, 4, 5, 6]
    t = payload("trace")
    assert t["a"][0] == 5 and t["degenerate"] is False


@pytest.mark.parametrize("vals", [
    [1048575, 1048575, 2],
    *([M, M, M, 2] for M in (4, 2**10, 2**16, (MAX_DEGREE_SUM - 2) // 3)),
], ids=lambda vals: "{%s}" % ",".join(map(str, vals)))
def test_schedule_segments_follow_the_distinct_values(vals):
    # at most a sinking segment and a countdown per distinct value, whatever
    # the size of the degrees; together they list the s scheduled entries
    D = make_degree_sequence(vals)
    for k in (1, 2, 3):
        t = decrement_sequence(D, k)
        assert len(t.segments) <= 2 * len(D.items)
        listed = sum(n * c * (hi - lo) for hi, lo, c, n in t.segments)
        assert listed == (0 if t.degenerate else t.s)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_omega_output_invariants(k):
    zeros = lambda n: make_degree_sequence([0] * n)
    for D in graphical_sequences(6, 14):
        if D.is_trivial(k):
            continue
        out = omega(D, k)
        assert out.is_graphical()
        assert len(out) == len(D) - 1
        if out != zeros(len(D) - 1):
            assert out.total == D.total - 2 * D.max_value
            assert out.max_value >= k


@pytest.mark.parametrize("k", [1, 2, 3])
def test_trace_contains_next_decrement_value(k):
    # after the i-th decrement the multiset holds an element a_i - 1,
    # which is what the witness construction wires edges to
    for D in graphical_sequences(5, 12):
        if D.is_trivial(k):
            continue
        t = decrement_sequence(D, k)
        if t.degenerate:
            continue
        states = schedule_states(t)
        assert states == ref.decrement_sequence(D, k)["intermediates"]
        for i in range(1, t.m + 1):
            assert (t.a[i - 1] - 1) in states[i]


def test_decrement_sequence_deterministic(rng):
    for _ in range(50):
        D = random_graphical(rng)
        for k in (1, 2, 3):
            if D.is_trivial(k):
                continue
            assert decrement_sequence(D, k) == decrement_sequence(D, k)


def test_runtime_scales_near_linearly():
    times = []
    for t in (8, 16, 32, 64, 128):
        D = make_degree_sequence([t] * t)
        start = time.perf_counter()
        b(D, 3)
        times.append(time.perf_counter() - start)
    for prev, cur in zip(times, times[1:]):
        assert cur <= 6 * max(prev, 1e-4)
