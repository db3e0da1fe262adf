import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import graphical_sequences
from greedymax.errors import InputError, LimitError
from greedymax.multiset import make_degree_sequence
from greedymax.omega import omega
from greedymax.orderlab import (
    addition_step,
    applicable_steps,
    precedes,
    pseudo_reductions,
    transfer_step,
)

nonempty_lists = st.lists(
    st.integers(min_value=0, max_value=10), min_size=1, max_size=8
)


def test_apply_decrement_examples():
    # a decrement of one copy of x is replace_one(x, x - 1)
    assert make_degree_sequence([1, 2, 2, 4, 4, 5]).replace_one(
        5, 4
    ) == make_degree_sequence([1, 2, 2, 4, 4, 4])
    assert make_degree_sequence([1]).replace_one(1, 0) == make_degree_sequence([0])
    with pytest.raises(InputError):
        make_degree_sequence([1, 2]).replace_one(3, 2)
    with pytest.raises(InputError):
        make_degree_sequence([0]).replace_one(0, -1)


def test_apply_increment_examples():
    # an increment of one copy of x is replace_one(x, x + 1)
    assert make_degree_sequence([1, 2, 2, 4, 4, 5, 6]).replace_one(
        2, 3
    ) == make_degree_sequence([1, 2, 3, 4, 4, 5, 6])
    assert make_degree_sequence([0]).replace_one(0, 1) == make_degree_sequence([1])
    with pytest.raises(InputError):
        make_degree_sequence([1]).replace_one(2, 3)


@given(nonempty_lists, st.data())
def test_decrement_sigma_identity(vals, data):
    E = make_degree_sequence(vals)
    positives = [v for v in E.values() if v > 0]
    if not positives:
        return
    x = data.draw(st.sampled_from(positives))
    D = E.replace_one(x, x - 1)
    se, sd = E.sigma, D.sigma
    for z in range(0, max(E.values()) + 2):
        assert sd(z) == se(z) - (1 if z == x else 0)


@given(nonempty_lists, st.data())
def test_increment_then_decrement_round_trip(vals, data):
    E = make_degree_sequence(vals)
    x = data.draw(st.sampled_from(E.values()))
    assert E.replace_one(x, x + 1).replace_one(x + 1, x) == E


def test_addition_step_worked_example():
    E = make_degree_sequence([1, 2, 2, 4, 4, 5, 6])
    assert addition_step(E, 3, 7) == make_degree_sequence([1, 2, 3, 4, 4, 5, 7])


def test_addition_step_zeros():
    assert addition_step(make_degree_sequence([0, 0]), 1, 1) == make_degree_sequence(
        [1, 1]
    )


def test_addition_step_rejects_violations():
    E = make_degree_sequence([1, 2])
    with pytest.raises(InputError):
        addition_step(E, 3, 2)  # x > y
    with pytest.raises(InputError):
        addition_step(E, 1, 4)  # y > max+1


@given(nonempty_lists, st.data())
def test_addition_step_sigma_identity(vals, data):
    E = make_degree_sequence(vals)
    top = E.max_value
    x = data.draw(st.integers(min_value=1, max_value=top + 1))
    y = data.draw(st.integers(min_value=x, max_value=top + 1))
    try:
        D = addition_step(E, x, y)
    except InputError:
        return
    assert D.total == E.total + 2
    assert D.max_value <= top + 1
    se, sd = E.sigma, D.sigma
    for z in range(0, top + 3):
        assert sd(z) == se(z) + (1 if z == x else 0) + (1 if z == y else 0)


def test_transfer_step_worked_example():
    Ep = make_degree_sequence([0, 1, 2, 3, 3, 3])
    assert transfer_step(Ep, 1, 3, 3) == make_degree_sequence([0, 0, 3, 3, 3, 3])


def test_transfer_step_downward_branch():
    E = make_degree_sequence([5, 1, 0])
    D = transfer_step(E, 5, 1, 3)
    assert D == make_degree_sequence([4, 1, 1])
    se, sd = E.sigma, D.sigma
    for z in range(0, 7):
        assert sd(z) == se(z) - (1 if z == 5 else 0) + (1 if z == 1 else 0)


def test_transfer_step_rejects_equal_values():
    with pytest.raises(InputError):
        transfer_step(make_degree_sequence([2, 2]), 2, 2, 3)


def test_precedes_reflexive():
    D = make_degree_sequence([1, 1, 2])
    assert precedes(D, D, 3)


def test_precedes_one_addition():
    D = make_degree_sequence([1, 2, 3, 4, 4, 5, 7])
    E = make_degree_sequence([1, 2, 2, 4, 4, 5, 6])
    assert precedes(D, E, 3)


def test_precedes_one_transfer():
    D = make_degree_sequence([0, 0, 3, 3, 3, 3])
    E = make_degree_sequence([0, 1, 2, 3, 3, 3])
    assert precedes(D, E, 3)


def test_precedes_order_mismatch():
    with pytest.raises(InputError):
        precedes(make_degree_sequence([1]), make_degree_sequence([1, 1]), 1)


def test_precedes_limit_guard():
    big = make_degree_sequence([8] * 8)
    with pytest.raises(LimitError):
        precedes(big, big, 3)


def test_precedes_guard_names_the_value():
    eight = make_degree_sequence([1] * 8)
    with pytest.raises(LimitError, match=r"^order 8 exceeds guard 7$"):
        precedes(eight, eight, 1)
    heavy = make_degree_sequence([7, 7, 7, 7])
    with pytest.raises(LimitError, match=r"^degree sum 28 exceeds guard 26$"):
        precedes(heavy, heavy, 1)


def test_precedes_false_after_the_whole_search():
    # the sums differ by 2, so the parity shortcut does not decide it: the
    # search reaches {1,1} from {0,0} and stops there
    assert not precedes(
        make_degree_sequence([0, 2]), make_degree_sequence([0, 0]), 1
    )


def test_precedes_sum_parity_pruning():
    # sums differing by an odd amount are unreachable
    assert not precedes(
        make_degree_sequence([1, 2]), make_degree_sequence([1, 1]), 1
    )
    assert not precedes(
        make_degree_sequence([0, 0]), make_degree_sequence([1, 1]), 1
    )


def test_pseudo_reductions_forced_case():
    outs = pseudo_reductions(make_degree_sequence([1, 1, 2]), 1)
    assert outs == [make_degree_sequence([0, 0])]


def test_pseudo_reductions_contains_omega():
    E = make_degree_sequence([1, 2, 2, 4, 4, 5, 6])
    outs = pseudo_reductions(E, 3)
    assert omega(E, 3) in outs


def test_pseudo_reductions_graphical_filter():
    outs = pseudo_reductions(make_degree_sequence([2, 2, 2]), 1)
    assert outs == [make_degree_sequence([1, 1])]


def test_pseudo_reductions_rejects_trivial():
    with pytest.raises(InputError):
        pseudo_reductions(make_degree_sequence([0, 0]), 1)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_pseudo_reductions_dominate_and_sum(k):
    for E in graphical_sequences(5, 10):
        if E.is_trivial(k):
            continue
        a0 = E.without_one(E.max_value)
        target = a0.total - E.max_value
        s0 = a0.sigma
        for out in pseudo_reductions(E, k):
            assert len(out) == len(E) - 1
            assert out.total == target
            so = out.sigma
            for z in range(1, E.max_value + 2):
                assert so(z) <= s0(z)


def test_applicable_steps_match_direct_application():
    rng = random.Random(1)
    for E in rng.sample(graphical_sequences(5, 10), 40):
        if len(E) == 0:
            continue
        for step, out in applicable_steps(E, 2):
            if step.kind == "addition":
                assert addition_step(E, step.x, step.y) == out
            else:
                assert transfer_step(E, step.x, step.y, 2) == out


def test_precedes_reaches_a_maximum_raised_by_a_transfer():
    # the (1,3)-transfer with x < y <= k turns {1,1,2,2} into {0,1,2,3}: the
    # maximum rises to k although no addition step is taken
    D = make_degree_sequence([0, 1, 2, 3])
    E = make_degree_sequence([1, 1, 2, 2])
    assert precedes(D, E, 3)
