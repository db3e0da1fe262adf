import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from greedymax.errors import InputError
from greedymax.multiset import (
    DegreeSequence,
    from_sigma,
    make_degree_sequence,
    parse_degrees,
    render_ferrers,
)

degree_lists = st.lists(st.integers(min_value=0, max_value=12), max_size=10)


def test_make_degree_sequence_counts():
    D = make_degree_sequence([1, 2, 2, 4, 4, 5, 6])
    assert D.counts == {1: 1, 2: 2, 4: 2, 5: 1, 6: 1}
    assert D.order == 7
    assert D.total == 24


def test_make_degree_sequence_empty():
    D = make_degree_sequence([])
    assert D.order == 0
    assert D.values() == []


def test_make_degree_sequence_order_insensitive():
    assert make_degree_sequence([3, 1, 3]) == make_degree_sequence([1, 3, 3])


def test_make_degree_sequence_rejects_negative():
    with pytest.raises(InputError):
        make_degree_sequence([1, -2])


def test_from_counts_rejects_a_negative_multiplicity():
    with pytest.raises(InputError, match=r"^negative multiplicity for value 3$"):
        DegreeSequence.from_counts({1: 2, 3: -1})
    # a zero count is dropped
    assert DegreeSequence.from_counts({1: 2, 3: 0}).items == ((1, 2),)


def test_is_graphical_examples():
    assert make_degree_sequence([1, 2, 2, 4, 4, 5, 6]).is_graphical()
    assert not make_degree_sequence([3]).is_graphical()
    assert not make_degree_sequence([5, 1]).is_graphical()
    assert make_degree_sequence([]).is_graphical()
    assert make_degree_sequence([0, 0, 0]).is_graphical()


@given(st.integers(min_value=1, max_value=50))
def test_singleton_never_graphical(x):
    assert not make_degree_sequence([x]).is_graphical()


def test_is_trivial_examples():
    assert make_degree_sequence([0, 0, 0, 0]).is_trivial(3)
    assert not make_degree_sequence([0, 0, 0, 3, 3]).is_trivial(3)
    assert make_degree_sequence([]).is_trivial(1)


def test_sigma_worked_example():
    D = make_degree_sequence([0, 1, 1, 3, 3])
    p = D.sigma
    assert [p(z) for z in range(6)] == [5, 4, 2, 2, 0, 0]


def test_sigma_all_zero():
    p = make_degree_sequence([0, 0]).sigma
    assert p(0) == 2 and p(1) == 0


def test_sigma_derived_example():
    p = make_degree_sequence([1, 2, 2, 4, 4, 5, 6]).sigma
    assert [p(z) for z in range(7)] == [7, 7, 6, 4, 4, 2, 1]


def test_sigma_of_a_huge_value_reads_the_runs():
    # a dense profile of this sequence would hold 2**31 cells
    D = make_degree_sequence([2**31 - 1, 1])
    start = time.perf_counter()
    assert [D.sigma(z) for z in (0, 1, 2, 2**31 - 1, 2**31)] == [2, 2, 1, 1, 0]
    assert time.perf_counter() - start < 1.0
    with pytest.raises(InputError):
        D.sigma(-1)


def test_from_sigma_worked_example():
    assert from_sigma([5, 4, 2, 2]) == make_degree_sequence([0, 1, 1, 3, 3])


def test_from_sigma_zero():
    assert from_sigma([0]) == make_degree_sequence([])


def test_from_sigma_rejects_non_monotone():
    with pytest.raises(InputError):
        from_sigma([2, 3])
    for profile in ([], [2, -1], [-1]):
        with pytest.raises(InputError):
            from_sigma(profile)


@given(degree_lists)
def test_sigma_round_trip(vals):
    D = make_degree_sequence(vals)
    top = max(vals, default=0)
    assert from_sigma([D.sigma(z) for z in range(top + 1)]) == D


@given(degree_lists)
def test_sigma_profile_invariants(vals):
    D = make_degree_sequence(vals)
    p = D.sigma
    top = max(vals, default=0)
    assert p(0) == D.order
    assert sum(p(z) for z in range(1, top + 2)) == D.total
    for z in range(top + 1):
        assert p(z) >= p(z + 1)


def test_mu_examples():
    D = make_degree_sequence([0, 1, 1, 3, 3])
    assert D.mu(1) == 2
    assert D.mu(2) == 0


@given(degree_lists, st.integers(min_value=0, max_value=13))
def test_mu_is_sigma_difference(vals, z):
    D = make_degree_sequence(vals)
    p = D.sigma
    assert D.mu(z) == p(z) - p(z + 1)


def test_replace_one():
    D = make_degree_sequence([1, 2, 2])
    assert D.replace_one(2, 5) == make_degree_sequence([1, 2, 5])
    assert D.replace_one(1, 0) == make_degree_sequence([0, 2, 2])
    assert D.replace_one(1, 1) == D
    with pytest.raises(InputError):
        D.replace_one(3, 2)  # no copy of 3
    with pytest.raises(InputError):
        D.replace_one(1, -1)


def test_max_of_empty_is_error():
    with pytest.raises(InputError):
        make_degree_sequence([]).max_value


def test_parse_degrees():
    assert parse_degrees("1,2,2,4,4,5,6") == make_degree_sequence([1, 2, 2, 4, 4, 5, 6])
    assert parse_degrees("") == make_degree_sequence([])
    with pytest.raises(InputError):
        parse_degrees("1,x")
    # the JSON array form is the comma form inside brackets
    assert parse_degrees(" [1, 2,2] ") == make_degree_sequence([1, 2, 2])
    assert parse_degrees("[]") == parse_degrees("[ ]") == make_degree_sequence([])
    for text in ('["1"]', "[1.0]", "[true]", "[+1]", "[01]", "[1,]", "[1", "[[1]]"):
        with pytest.raises(InputError):
            parse_degrees(text)


def test_ferrers_small_shape():
    out = render_ferrers(make_degree_sequence([2, 1]), 3)
    assert out.splitlines() == ["##", "#"]


def test_ferrers_marker_column():
    out = render_ferrers(make_degree_sequence([0, 1, 2, 3, 3, 3]), 3)
    lines = out.split("\n")
    assert len(lines) == 6
    assert max(line.count("#") for line in lines) == 3
    assert all("|" not in line for line in lines)
    tall = render_ferrers(make_degree_sequence([5]), 3).splitlines()
    assert tall == ["###|##"]


@given(degree_lists)
def test_ferrers_parse_back(vals):
    D = make_degree_sequence(vals)
    lines = render_ferrers(D, 3).split("\n") if len(D) else []
    assert [line.count("#") for line in lines] == sorted(D.values(), reverse=True)
