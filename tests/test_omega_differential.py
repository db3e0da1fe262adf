"""The block-based reduction core against the unit-at-a-time schedule, and
``chain_length`` against ``b``, whose chain takes one ``_Blocks.reduce`` per
step.  The tests named for ``exceeds`` check the decision the covering test
takes from ``chain_length``, whether b(D, k) = n - ``chain_length(D, k)``
exceeds z: at each z near b, or through the chain length itself, which
fixes it at every z."""

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
from greedymax.omega import b, chain_length, decrement_sequence, omega

# the package re-exports the function ``omega`` under the submodule's name
omega_module = importlib.import_module("greedymax.omega")

CORPUS = graphical_sequences(7, 22)
CORPUS_8 = graphical_sequences(8, 24)
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


def assert_chain_stays_graphical(D, k):
    # the core checks its input only: each later term is what the witness
    # has left after its scripted deletions, so it is graphical too
    trace = b(D, k)
    assert all(term.is_graphical() for term in trace.chain), (D, k)
    if trace.p:
        # the last step always takes the degenerate branch
        last = trace.chain[-1]
        assert last == DegreeSequence.from_counts({0: len(last)}), (D, k)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_chain_stays_graphical_on_all_small_sequences(k):
    for D in CORPUS_8:
        assert_chain_stays_graphical(D, k)


@settings(max_examples=150, deadline=None)
@given(D=few_vertex_large_degree(top=M), k=st.integers(1, 6))
@example(D=make_degree_sequence([M, M, M, 2]), k=1)
def test_chain_stays_graphical_on_huge_degrees(D, k):
    assert_chain_stays_graphical(D, k)


def assert_exceeds_matches_b(D, k):
    bound = b(D, k).b
    p = chain_length(D, k)
    for z in range(bound - 3, bound + 3):
        assert (len(D) - p > z) == (bound > z), (D, k, z)


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
        assert rep.b == bound, rep
        assert rep.reason == ("b > z" if bound > rep.z else None), rep
        checks += 1
    # the z-tests of the kappa 5..12 scan on graphical excess profiles
    assert checks == 596


def outcome(length, D, k):
    try:
        return length(D, k)
    except InputError:
        return InputError


def stepwise_length(D, k):
    """The chain length of ``b``, one ``_Blocks.reduce`` per step."""
    return b(D, k).p


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_exceeds_matches_the_stepwise_walk_on_all_small_sequences(k):
    # every graphical sequence of order <= 8 and sum <= 24: over k 1..6,
    # 37,932 cases, 15,505 of them ending in the tail min(c, T // 2k)
    for D in CORPUS_8:
        assert chain_length(D, k) == stepwise_length(D, k), (D, k)


def test_exceeds_matches_the_stepwise_walk_on_every_scan_z_test():
    for rep in scan_z_tests(5, 12):
        assert outcome(chain_length, rep.D, rep.k) == outcome(
            stepwise_length, rep.D, rep.k), rep


@settings(max_examples=200, deadline=None)
@given(
    D=st.one_of(
        few_vertex_large_degree(top=M),
        st.lists(st.integers(0, M), min_size=1, max_size=5).map(
            make_degree_sequence),
    ),
    k=st.one_of(st.integers(0, 6), st.integers(7, M)),
)
@example(D=make_degree_sequence([M, M, M, 2]), k=1)
@example(D=make_degree_sequence([M] * 4), k=M // 2)
def test_exceeds_matches_the_stepwise_walk_on_huge_degrees(D, k):
    # the same chain length, or the same InputError
    assert outcome(chain_length, D, k) == outcome(stepwise_length, D, k)


def test_exceeds_walks_balanced_groups_by_phases(monkeypatch):
    calls = 0
    reduce = omega_module._Blocks.reduce

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return reduce(self, *args)

    monkeypatch.setattr(omega_module._Blocks, "reduce", counted)
    # the scan calls chain_length once on each graphical report
    reports = list(scan_z_tests(14, 20))
    monkeypatch.undo()
    graphical = [rep for rep in reports if rep.D.is_graphical()]
    chain_steps = sum(stepwise_length(rep.D, rep.k) for rep in graphical)
    assert (len(reports), len(graphical), chain_steps) == (4037, 4035, 172479)
    # the group phases and the tail take all but a few steps in a hundred
    assert calls < 0.05 * chain_steps


def test_exceeds_rejects_what_b_rejects():
    with pytest.raises(InputError):
        chain_length(make_degree_sequence([5]), 3)  # not graphical
    with pytest.raises(InputError):
        chain_length(make_degree_sequence([1, 1]), 0)  # k < 1
    assert chain_length(DegreeSequence(()), 1) == 0
    assert chain_length(make_degree_sequence([3, 3, 2]), 1) == 2
