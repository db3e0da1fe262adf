"""Reference implementation of the reduction operator, one unit at a time.

This is the plain decrement schedule on a dense array indexed by value:
a run of s decrements costs O(s + max).  It shares no code with the
block-based core in ``greedymax.omega``, which the differential tests
compare against it.
"""

from greedymax.errors import InputError
from greedymax.multiset import DegreeSequence


class DecrementState:
    """Mutable multiset supporting the decrement schedule in O(1) amortized.

    Multiplicities live in an array indexed by value; the maximum pointer
    only moves down and the smallest-positive pointer is repaired by short
    scans, so a run of s decrements costs O(s + max)."""

    def __init__(self, D: DegreeSequence):
        top = D.max_value if len(D) else 0
        self.mult = [0] * (top + 1)
        for v, m in D.items:
            self.mult[v] = m
        self.cur_max = top
        self._fix_max()
        self.cur_min = 1
        self._fix_min()

    def _fix_max(self) -> None:
        while self.cur_max > 0 and self.mult[self.cur_max] == 0:
            self.cur_max -= 1

    def _fix_min(self) -> None:
        while self.cur_min <= self.cur_max and self.mult[self.cur_min] == 0:
            self.cur_min += 1

    def decrement_once(self, k: int) -> int:
        """Apply one scheduled decrement; returns the value decremented."""
        if self.cur_max > k:
            x = self.cur_max
        else:
            if self.cur_min > self.cur_max:
                raise InputError("no positive element")
            x = self.cur_min
        self.mult[x] -= 1
        self.mult[x - 1] += 1
        self._fix_max()
        if x - 1 >= 1:
            self.cur_min = min(self.cur_min, x - 1)
        self._fix_min()
        return x

    def snapshot(self) -> DegreeSequence:
        return DegreeSequence.from_counts(
            {v: m for v, m in enumerate(self.mult) if m}
        )


def zeros(n: int) -> DegreeSequence:
    return DegreeSequence.from_counts({0: n})


def is_degenerate(D: DegreeSequence, a0: DegreeSequence, k: int) -> bool:
    return a0.total < D.max_value + 2 * k or len(a0) == 0 or a0.max_value < k


def decrement_sequence(
    D: DegreeSequence, k: int, keep_intermediates: bool = True
) -> dict:
    """Fields of ``DecrementTrace`` for a nontrivial graphical D.  Each
    intermediate state costs O(max(D)) to copy."""
    m = D.max_value
    a0 = D.without_one(m)
    if is_degenerate(D, a0, k):
        return {"m": m, "s": a0.total, "a": (), "omega": zeros(len(D) - 1),
                "degenerate": True, "intermediates": ()}
    state = DecrementState(a0)
    a, inter = [], [a0]
    for i in range(1, a0.total + 1):
        a.append(state.decrement_once(k))
        if keep_intermediates:
            inter.append(state.snapshot())
        elif i == m:
            result = state.snapshot()
    if keep_intermediates:
        result = inter[m]
    return {"m": m, "s": a0.total, "a": tuple(a), "omega": result,
            "degenerate": False,
            "intermediates": tuple(inter) if keep_intermediates else ()}


def omega(D: DegreeSequence, k: int) -> DegreeSequence:
    """One application of the operator to a nonempty graphical D."""
    m = D.max_value
    a0 = D.without_one(m)
    if is_degenerate(D, a0, k):
        return zeros(len(D) - 1)
    state = DecrementState(a0)
    for _ in range(m):
        state.decrement_once(k)
    return state.snapshot()


def chain(D: DegreeSequence, k: int) -> tuple[DegreeSequence, ...]:
    """D, O(D), O^2(D), ... down to the first trivial term."""
    out = [D]
    while not out[-1].is_trivial(k):
        out.append(omega(out[-1], k))
    return tuple(out)
