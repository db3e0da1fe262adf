"""Elementary rewriting steps on degree sequences and the induced order.

An addition step raises two elements by one (sum +2); a transfer step
moves a unit from one element to another subject to a side condition on
k.  D precedes E when D is reachable from E by such steps; reachability
is decided here by plain breadth-first search, which is exponential and
guarded accordingly -- these routines are verification oracles for small
instances, not production decision procedures.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Literal, NamedTuple

from .errors import InputError, LimitError, check_k
from .multiset import DegreeSequence, from_sigma
from .omega import omega

PRECEDES_MAX_ORDER = 7
PRECEDES_MAX_SUM = 26


class ElementaryStep(NamedTuple):
    kind: Literal["addition", "transfer"]
    x: int
    y: int


def _addition_allowed(x: int, y: int, top: int) -> bool:
    """Side condition of an (x,y)-addition on a multiset with maximum top."""
    return x <= y <= top + 1


def _transfer_allowed(x: int, y: int, k: int) -> bool:
    """Side condition of an (x,y)-transfer."""
    return x > max(k, y) or x < y <= k


def addition_step(E: DegreeSequence, x: int, y: int) -> DegreeSequence:
    """(x,y)-addition: an (x-1)-increment then a (y-1)-increment,
    requiring x <= y <= max(E) + 1."""
    if x < 1 or y < 1:
        raise InputError("step parameters must be positive")
    if len(E) == 0:
        raise InputError("cannot apply a step to the empty multiset")
    if not _addition_allowed(x, y, E.max_value):
        raise InputError(f"addition step needs x <= y <= max+1, got ({x},{y})")
    return E.replace_one(x - 1, x).replace_one(y - 1, y)


def transfer_step(E: DegreeSequence, x: int, y: int, k: int) -> DegreeSequence:
    """(x,y)-transfer: an x-decrement then a (y-1)-increment, requiring
    x > max(k,y) or x < y <= k."""
    check_k(k)
    if x < 1 or y < 1:
        raise InputError("step parameters must be positive")
    if not _transfer_allowed(x, y, k):
        raise InputError(
            f"transfer step needs x > max(k,y) or x < y <= k, got ({x},{y}), k={k}"
        )
    return E.replace_one(x, x - 1).replace_one(y - 1, y)


def applicable_steps(
    E: DegreeSequence, k: int
) -> Iterator[tuple[ElementaryStep, DegreeSequence]]:
    """All elementary steps applicable to E, with their results."""
    if len(E) == 0:
        return
    top = E.max_value
    # addition steps: x-1 must be present; y up to max(E)+1
    for x_src, _ in E.items:
        x = x_src + 1
        mid = E.replace_one(x_src, x)
        for y_src, _ in mid.items:
            y = y_src + 1
            if _addition_allowed(x, y, top):
                yield ElementaryStep("addition", x, y), mid.replace_one(y_src, y)
    # transfer steps: x present and positive
    for x, _ in E.items:
        if x == 0:
            continue
        mid = E.replace_one(x, x - 1)
        for y_src, _ in mid.items:
            y = y_src + 1
            if _transfer_allowed(x, y, k):
                yield ElementaryStep("transfer", x, y), mid.replace_one(y_src, y)


def precedes(D: DegreeSequence, E: DegreeSequence, k: int) -> bool:
    """Decide reachability of D from E by elementary steps (BFS oracle).

    Exponential in general; refuses instances beyond the declared guards."""
    check_k(k)
    if len(D) != len(E):
        raise InputError("orders differ")
    if len(D) > PRECEDES_MAX_ORDER or D.total > PRECEDES_MAX_SUM:
        raise LimitError(
            "instance exceeds guards "
            f"(order <= {PRECEDES_MAX_ORDER}, sum <= {PRECEDES_MAX_SUM})"
        )
    if D == E:
        return True
    # additions add 2 to the sum, transfers preserve it
    if D.total < E.total or (D.total - E.total) % 2 != 0:
        return False
    target_sum = D.total
    # a transfer never raises the maximum above max(current maximum, k),
    # and each of the (sum(D) - sum(E))/2 additions raises it by at most 1
    max_elem = max(E.max_value, k) + (target_sum - E.total) // 2
    seen = {E}
    queue = deque([E])
    while queue:
        cur = queue.popleft()
        for _, nxt in applicable_steps(cur, k):
            if nxt.total > target_sum or nxt.max_value > max_elem:
                continue
            if nxt in seen:
                continue
            if nxt == D:
                return True
            seen.add(nxt)
            queue.append(nxt)
    return False


def pseudo_reductions(E: DegreeSequence, k: int) -> list[DegreeSequence]:
    """All graphical sequences of order n-1 with the sum of a reduction of E
    and conjugate profile dominated by that of E minus one maximum.

    Every true reduction of E appears here, so the list is a sound superset
    for testing reduction claims.  The enumeration is exponential, so it
    refuses sum(E) above PRECEDES_MAX_SUM."""
    check_k(k)
    if not E.is_graphical():
        raise InputError("input is not graphical")
    if E.is_trivial(k):
        raise InputError("input is trivial")
    if E.total > PRECEDES_MAX_SUM:
        raise LimitError(f"degree sum {E.total} exceeds guard {PRECEDES_MAX_SUM}")
    m = E.max_value
    a0 = E.without_one(m)
    target = a0.total - m
    if target < 0:
        return []
    n_out = len(E) - 1
    results: list[DegreeSequence] = []
    profile: list[int] = []

    def extend(z: int, remaining: int, prev: int) -> None:
        if remaining == 0:
            cand = from_sigma([n_out] + profile)
            if cand.is_graphical():
                results.append(cand)
            return
        cap = min(prev, a0.sigma(z), remaining)
        for col in range(cap, 0, -1):
            # columns are nonincreasing, so at most `col` per later column:
            # unbounded depth is fine because col >= 1 shrinks `remaining`
            profile.append(col)
            extend(z + 1, remaining - col, col)
            profile.pop()

    extend(1, target, n_out)
    return results


def omega_one_step_below(D: DegreeSequence, E: DegreeSequence, k: int) -> bool:
    """Check the refinement: omega(D) equals omega(E) or is one step from it."""
    od, oe = omega(D, k), omega(E, k)
    return od == oe or any(out == od for _, out in applicable_steps(oe, k))
