"""The block-based reduction core against the unit-at-a-time schedule."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unit_schedule as ref
from conftest import graphical_sequences
from greedymax.multiset import DegreeSequence, make_degree_sequence
from greedymax.omega import b, decrement_sequence, omega

CORPUS = graphical_sequences(7, 22)


def assert_matches_reference(D, k, keep_intermediates=True):
    assert b(D, k).chain == ref.chain(D, k)
    if D.is_trivial(k):
        return
    assert omega(D, k) == ref.omega(D, k)
    expected = ref.decrement_sequence(D, k, keep_intermediates)
    trace = decrement_sequence(D, k, keep_intermediates)
    for name, value in expected.items():
        assert getattr(trace, name) == value, (D, k, name)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_core_matches_unit_schedule_on_all_small_sequences(k):
    for D in CORPUS:
        assert_matches_reference(D, k)
        assert_matches_reference(D, k, keep_intermediates=False)


@st.composite
def few_vertex_large_degree(draw):
    vals = draw(st.lists(st.integers(0, 2**12), min_size=1, max_size=5))
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
@given(D=few_vertex_large_degree(), k=st.integers(1, 6))
def test_core_matches_unit_schedule_on_large_degrees(D, k):
    assert D.is_graphical()
    # the reference copies O(max(D)) per intermediate state, so those are
    # compared on the smaller sums only
    assert_matches_reference(D, k, keep_intermediates=D.total <= 2000)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_chain_cost_does_not_grow_with_degree_size(k):
    # the unit schedule would take about 2^31 decrements per step here
    M = 2**31 - 2
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
