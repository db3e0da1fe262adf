"""The canonical worst-case reduction operator and the bound b_k(D).

Given a nontrivial degree sequence D, drop one copy of its maximum m and
run the deterministic decrement schedule: take a unit off the current
maximum while it exceeds k, otherwise off the smallest positive element.
The state after m decrements is the reduced sequence; iterating until the
result is trivial yields the tight worst-case size b_k(D) of a greedy
k-independent set.

No value ever rises during the schedule, so its s = sum(A_0) steps, with
A_0 the input less one m, follow from A_0 in two phases.  First the
elements above k sink to k: the top run goes down one level at a time,
each level listed once per element of the run, and every run it reaches
joins it.  Then every element is at most k, and each falls to 0 in turn,
smallest first.  ``decrement_sequence`` writes the schedule this way in
O(d + s) for d distinct values.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import InputError
from .multiset import DegreeSequence, check_degree_sum


class _Blocks:
    """Multiset state for the decrement schedule, kept as runs of equal values.

    ``blocks`` holds the (value, multiplicity) pairs of the positive values
    in increasing order and ``zeros`` counts the zero elements; ``order``
    and ``total`` are updated in O(1) per change.  The schedule only ever
    moves whole runs: above k the top block of multiplicity c drops one
    level per c decrements, and at or below k the smallest positive element
    falls straight to 0.  ``reduce`` therefore applies its m decrements in
    closed form, one block at a time, and its cost does not depend on m or
    on the size of the values."""

    __slots__ = ("blocks", "zeros", "order", "total")

    def __init__(self, D: DegreeSequence):
        items = D.items
        self.zeros = items[0][1] if items and items[0][0] == 0 else 0
        self.blocks = deque(items[1:] if self.zeros else items)
        self.order = len(D)
        self.total = D.total

    @property
    def top(self) -> int:
        """Largest element, 0 when no element is positive."""
        return self.blocks[-1][0] if self.blocks else 0

    def sequence(self) -> DegreeSequence:
        items = tuple(self.blocks)
        return DegreeSequence(((0, self.zeros),) + items if self.zeros else items)

    def reduce(self, k: int) -> bool:
        """One application of the operator, in place; the one step that
        ``omega``, ``decrement_sequence``, ``b`` and ``exceeds`` share.

        Raises InputError unless the state is graphical (even sum, at least
        twice the maximum), drops one copy of the maximum m and applies the
        first m scheduled decrements.  When what is left sums to less than
        m + 2k or has its maximum below k, the reduction is forced to all
        zeros instead, and True is returned for that degenerate branch."""
        blocks = self.blocks
        total = self.total
        m, c = blocks[-1] if blocks else (0, 0)
        if total % 2 or total < 2 * m:
            raise InputError("input is not graphical")
        self.order -= 1
        if c > 1:
            blocks[-1] = (m, c - 1)
        elif c:
            blocks.pop()
        else:
            self.zeros -= 1
        total -= m
        if total < m + 2 * k or not blocks or blocks[-1][0] < k:
            self.zeros, self.total = self.order, 0
            blocks.clear()
            return True
        # what is left sums to at least m + 2k, so the blocks never run out
        self.total = total - m
        t = m
        while t:
            v, c = blocks[-1]
            if v > k:
                # the top block sinks to the next value or to k
                blocks.pop()
                below = blocks[-1][0] if blocks else 0
                floor = below if below > k else k
                q = t // c
                if q < v - floor:
                    # q whole levels, then r copies one level further
                    r = t - q * c
                    w = v - q
                    if r and w - 1 == below:
                        blocks[-1] = (below, blocks[-1][1] + r)
                    elif r:
                        blocks.append((w - 1, r))
                    blocks.append((w, c - r))
                    break
                t -= c * (v - floor)
                if floor == below:
                    blocks[-1] = (below, blocks[-1][1] + c)
                else:
                    blocks.append((floor, c))
            else:
                # the smallest positive elements fall to 0 one at a time
                x, c = blocks.popleft()
                q = t // x
                if q < c:
                    r = t - q * x
                    self.zeros += q
                    left = c - q - (r > 0)
                    if left:
                        blocks.appendleft((x, left))
                    if r:
                        blocks.appendleft((x - r, 1))
                    break
                t -= c * x
                self.zeros += c
        return False


@dataclass(frozen=True)
class DecrementTrace:
    """Full record of one reduction: the schedule and the result.

    The intermediate states follow from it: A_0 is the input without one
    copy of m, A_i is A_{i-1} with one copy of a_i replaced by a_i - 1, and
    omega is A_m unless the reduction is degenerate.  The schedule ``a``
    lists the levels the elements above k pass through as they sink to k,
    then each element counting down from min(x, k) to 1, smallest first."""

    k: int
    input: DegreeSequence
    m: int
    s: int
    a: tuple[int, ...]
    omega: DegreeSequence
    degenerate: bool

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "input": self.input.values(),
            "m": self.m,
            "s": self.s,
            "a": list(self.a),
            "omega": self.omega.values(),
            "degenerate": self.degenerate,
        }


@dataclass(frozen=True)
class BTrace:
    """Iteration chain D, O(D), O^2(D), ... down to the first trivial term."""

    k: int
    chain: tuple[DegreeSequence, ...]
    p: int
    b: int

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "b": self.b,
            "p": self.p,
            "chain": [D.values() for D in self.chain],
        }


def _check_graphical(D: DegreeSequence, k: int) -> None:
    if k < 1:
        raise InputError("k must be a positive integer")
    if not D.is_graphical():
        raise InputError("input is not graphical")


def _check_reducible(D: DegreeSequence, k: int) -> None:
    _check_graphical(D, k)
    if not D.items:
        raise InputError("cannot reduce the empty sequence")


def omega(D: DegreeSequence, k: int) -> DegreeSequence:
    """One application of the reduction operator (order drops by one)."""
    _check_reducible(D, k)
    state = _Blocks(D)
    state.reduce(k)
    return state.sequence()


def decrement_sequence(D: DegreeSequence, k: int) -> DecrementTrace:
    """The full decrement schedule (a_1, ..., a_s) of D, with s = sum(A_0).

    The schedule is written from A_0 in its two phases, in O(d + s).  In
    the degenerate branch (reduction forced to all zeros) it is unused and
    returned empty.  Raises LimitError when sum(D) exceeds MAX_DEGREE_SUM."""
    _check_reducible(D, k)
    if D.is_trivial(k):
        raise InputError("input is trivial")
    check_degree_sum(D)
    m = D.max_value
    state = _Blocks(D)
    degenerate = state.reduce(k)
    a: list[int] = []
    items = () if degenerate else D.without_one(m).items  # A_0's runs
    # sink to k; c counts the elements above k, all at the current level
    c = 0
    for i in range(len(items) - 1, -1, -1):
        v, n = items[i]
        if v <= k:
            break
        c += n
        below = max(items[i - 1][0], k) if i else k
        # levels v, v - 1, ..., below + 1, each listed c times; the c
        # interleaved slices share one int object per level
        down = list(range(v, below, -1))
        start = len(a)
        a += [0] * (c * len(down))
        for j in range(c):
            a[start + j::c] = down
    # fall to 0: every element is at most k now, smallest first
    for x, n in items:
        if x:
            a += list(range(min(x, k), 0, -1)) * n
    return DecrementTrace(
        k=k, input=D, m=m, s=D.total - m, a=tuple(a),
        omega=state.sequence(), degenerate=degenerate,
    )


def b(D: DegreeSequence, k: int) -> BTrace:
    """Worst-case greedy k-independent set size over realizations of D.

    Runs the reduction chain until the first trivial term.  Each step costs
    O(d) for a term with d distinct values (the blocks the schedule touches,
    plus the copy kept in the chain), so a chain of p <= n steps costs
    O(p * d), whatever the size of the degrees."""
    _check_graphical(D, k)
    state = _Blocks(D)  # one block state carried along the whole chain
    chain = [D]
    while state.top >= k:
        state.reduce(k)
        chain.append(state.sequence())
    p = len(chain) - 1
    return BTrace(k=k, chain=tuple(chain), p=p, b=len(D) - p)


def exceeds(D: DegreeSequence, k: int, z: int) -> bool:
    """Whether b(D, k) > z, decided without walking the whole chain.

    With p the number of steps of the reduction chain of D, b = n - p, so
    the answer is p < n - z.  The walk carries the block state of ``b``
    and stops at the first of two points:

    - p >= n - z: the answer is False.
    - p + #{x >= k} < n - z: the answer is True.  A step only runs while
      the maximum is at least k, and it drops that maximum, so each step
      removes an element >= k.  No value ever rises, so an element below k
      never reaches k again.  At most #{x >= k} steps therefore remain.

    A trivial term has no element >= k, so the walk stops by the end of
    the chain at the latest.  No chain term is built or stored; on the
    covering scan this takes about half the steps of the full chain.
    Raises InputError where ``b`` does."""
    _check_graphical(D, k)
    state = _Blocks(D)
    need = len(D) - z
    p = 0
    while p < need:
        left = 0  # #{x >= k}, counted from the top
        for v, c in reversed(state.blocks):
            if v < k:
                break
            left += c
        if p + left < need:
            return True
        state.reduce(k)
        p += 1
    return False
