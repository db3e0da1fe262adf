"""The block-based reduction core against the unit-at-a-time schedule, and
the decision ``exceeds`` against ``b`` and against a walk of one
``_Blocks.reduce`` per chain step."""

import importlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import unit_schedule as ref
from conftest import graphical_sequences, schedule_states
from greedymax.covering import (
    CoveringParams,
    covering_lower_bound,
    scan_range,
    schonheim,
)
from greedymax.errors import InputError
from greedymax.multiset import DegreeSequence, make_degree_sequence
from greedymax.omega import b, decrement_sequence, exceeds, omega

# the package re-exports the function ``omega`` under the submodule's name
omega_module = importlib.import_module("greedymax.omega")

CORPUS = graphical_sequences(7, 22)
M = 2**31 - 2


def assert_matches_reference(D, k, keep_intermediates=True):
    assert b(D, k).chain == ref.chain(D, k)
    if D.is_trivial(k):
        return
    assert omega(D, k) == ref.omega(D, k)
    expected = ref.decrement_sequence(D, k, keep_intermediates)
    trace = decrement_sequence(D, k)
    # the reference keeps the states only when asked and not degenerate;
    # the trace determines them through its schedule
    intermediates = expected.pop("intermediates")
    if intermediates:
        assert schedule_states(trace) == intermediates, (D, k)
    for name, value in expected.items():
        assert getattr(trace, name) == value, (D, k, name)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_core_matches_unit_schedule_on_all_small_sequences(k):
    for D in CORPUS:
        assert_matches_reference(D, k)
        assert_matches_reference(D, k, keep_intermediates=False)


@st.composite
def few_vertex_large_degree(draw, top=2**12):
    vals = draw(st.lists(st.integers(0, top), min_size=1, max_size=5))
    if sum(vals) % 2:
        vals[0] += 1
    top = max(vals)
    if sum(vals) < 2 * top:
        # lower the maximum to the sum of the others, keeping the parity
        i = vals.index(top)
        rest = sum(vals) - top
        vals[i] = rest
    return make_degree_sequence(vals)


@settings(max_examples=150, deadline=None)
@given(
    D=few_vertex_large_degree(),
    k=st.one_of(st.integers(1, 6), st.integers(7, 2**12)),
)
def test_core_matches_unit_schedule_on_large_degrees(D, k):
    assert D.is_graphical()
    # the reference copies O(max(D)) per intermediate state, so those are
    # compared on the smaller sums only
    assert_matches_reference(D, k, keep_intermediates=D.total <= 2000)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_chain_cost_does_not_grow_with_degree_size(k):
    # the unit schedule would take about 2^31 decrements per step here
    D = make_degree_sequence([M, M, M, 2])
    trace = b(D, k)
    assert trace.chain[1] == make_degree_sequence([2, M // 2, M // 2])
    for cur, nxt in zip(trace.chain, trace.chain[1:]):
        assert nxt.is_graphical()
        assert len(nxt) == len(cur) - 1
        if nxt != DegreeSequence.from_counts({0: len(nxt)}):
            assert nxt.total == cur.total - 2 * cur.max_value
            assert nxt.max_value >= k
    assert trace.chain[-1].is_trivial(k)


def assert_exceeds_matches_b(D, k):
    bound = b(D, k).b
    for z in range(bound - 3, bound + 3):
        assert exceeds(D, k, z) == (bound > z), (D, k, z)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_exceeds_matches_b_on_all_small_sequences(k):
    for D in CORPUS:
        assert_exceeds_matches_b(D, k)


@settings(max_examples=150, deadline=None)
@given(D=few_vertex_large_degree(top=M), k=st.integers(1, 6))
@example(D=make_degree_sequence([M, M, M, 2]), k=1)
def test_exceeds_matches_b_on_huge_degrees(D, k):
    assert_exceeds_matches_b(D, k)


def scan_z_tests(kappa_min, kappa_max):
    """Every report of a z-test that the covering scan of
    kappa_min..kappa_max makes."""
    for kappa in range(kappa_min, kappa_max + 1):
        for v in scan_range(kappa):
            start = schonheim(v, kappa)
            _, reports = covering_lower_bound(CoveringParams(v, kappa, 1), start)
            yield from reports


def test_exceeds_matches_b_on_every_scan_z_test():
    checks = 0
    for rep in scan_z_tests(5, 12):
        if not rep.D.is_graphical():
            assert rep.contradiction and rep.b is None, rep
            continue
        bound = b(rep.D, rep.k).b
        assert exceeds(rep.D, rep.k, rep.z) == (bound > rep.z), rep
        # the report stores the decision and computes b when it is read
        assert rep.contradiction == (bound > rep.z) and rep.b == bound
        assert rep.reason == ("b > z" if bound > rep.z else None)
        checks += 1
    # the z-tests of the kappa 5..12 scan on graphical excess profiles
    assert checks == 596


def test_exceeds_stops_before_the_end_of_the_chain(monkeypatch):
    steps = 0
    reduce = omega_module._Blocks.reduce

    def counted(self, *args):
        nonlocal steps
        steps += 1
        return reduce(self, *args)

    chain_steps = exceeds_steps = 0
    for rep in scan_z_tests(14, 14):
        p = b(rep.D, rep.k).p
        with monkeypatch.context() as patched:
            patched.setattr(omega_module._Blocks, "reduce", counted)
            steps = 0
            exceeds(rep.D, rep.k, rep.z)
        assert steps <= p
        chain_steps += p
        exceeds_steps += steps
    # on these cells both stops together save more than a third of the steps
    assert exceeds_steps < 0.65 * chain_steps


def stepwise_exceeds(D, k, z):
    """The decision b(D, k) > z with the two stops of ``exceeds``, taking
    one ``_Blocks.reduce`` per chain step: the reference for its phases."""
    omega_module._check_graphical(D, k)
    state = omega_module._Blocks(D)
    need = len(D) - z
    p = 0
    while p < need:
        left = sum(c for v, c in state.blocks if v >= k)  # #{x >= k}
        if p + left < need:
            return True
        state.reduce(k)
        p += 1
    return False


def outcome(decide, D, k, z):
    try:
        return decide(D, k, z)
    except InputError:
        return InputError


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_exceeds_matches_the_stepwise_walk_on_all_small_sequences(k):
    for D in CORPUS:
        for z in range(-1, len(D) + 2):
            assert exceeds(D, k, z) == stepwise_exceeds(D, k, z), (D, k, z)


def test_exceeds_matches_the_stepwise_walk_on_every_scan_z_test():
    for rep in scan_z_tests(5, 12):
        for z in (rep.z - 1, rep.z, rep.z + 1):
            assert outcome(exceeds, rep.D, rep.k, z) == outcome(
                stepwise_exceeds, rep.D, rep.k, z), (rep, z)


@settings(max_examples=200, deadline=None)
@given(
    D=st.one_of(
        few_vertex_large_degree(top=M),
        st.lists(st.integers(0, M), min_size=1, max_size=5).map(
            make_degree_sequence),
    ),
    k=st.one_of(st.integers(0, 6), st.integers(7, M)),
    z=st.integers(-1, 6),
)
@example(D=make_degree_sequence([M, M, M, 2]), k=1, z=2)
@example(D=make_degree_sequence([M] * 4), k=M // 2, z=1)
def test_exceeds_matches_the_stepwise_walk_on_huge_degrees(D, k, z):
    # the same decision, or the same InputError
    assert outcome(exceeds, D, k, z) == outcome(stepwise_exceeds, D, k, z)


def test_exceeds_walks_balanced_groups_by_phases(monkeypatch):
    calls = 0
    reduce = omega_module._Blocks.reduce

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return reduce(self, *args)

    monkeypatch.setattr(omega_module._Blocks, "reduce", counted)
    # the scan calls exceeds once on each graphical report
    reports = list(scan_z_tests(14, 20))
    phase_calls, calls = calls, 0
    for rep in reports:
        if rep.D.is_graphical():
            stepwise_exceeds(rep.D, rep.k, rep.z)
    assert (len(reports), calls) == (4037, 90301)
    # the balanced groups take three walked steps in five
    assert phase_calls < 0.45 * calls


def test_exceeds_rejects_what_b_rejects():
    with pytest.raises(InputError):
        exceeds(make_degree_sequence([5]), 3, 0)  # not graphical
    with pytest.raises(InputError):
        exceeds(make_degree_sequence([1, 1]), 0, 0)  # k < 1
    # b(D, k) lies in 0..n, so z < 0 and z >= n decide at once
    assert exceeds(DegreeSequence(()), 1, -1)
    assert not exceeds(make_degree_sequence([3, 3, 2]), 1, 3)
