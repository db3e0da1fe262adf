"""Elementary rewriting steps on degree sequences and the induced order.

An addition step raises two elements by one (sum +2); a transfer step
moves a unit from one element to another subject to a side condition on
k.  D precedes E when D is reachable from E by such steps; reachability
is decided here by breadth-first search over multiplicity vectors, tuples
indexed by value, where a step is two index moves.  The search is
exponential and guarded accordingly -- these routines are verification
oracles for small instances, not production decision procedures.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Literal, NamedTuple

from .errors import InputError, check_k, check_limit
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
    """Side condition of an (x,y)-transfer: x > max(k,y) or x < y <= k."""
    return x > k and x > y or x < y <= k


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


def _vector_steps(
    c: tuple[int, ...], k: int, additions: bool = True
) -> Iterator[tuple[str, int, int, tuple[int, ...]]]:
    """The elementary steps on the nonempty multiset with c[v] copies of
    each value v, as (kind, x, y, result vector), in the order of
    ``applicable_steps``.  A result that would hold a value past the end of
    c is left out, and so is every addition when ``additions`` is false.

    A step is two index moves on a copy of c: a first move from x - 1 to x
    for an addition, from x to x - 1 for a transfer, then from y - 1 to y."""
    size = len(c)
    present = [v for v in range(size) if c[v]]
    top = present[-1]
    firsts = [("addition", v + 1, v, v + 1) for v in present if v + 1 < size and additions]
    firsts += [("transfer", v, v, v - 1) for v in present if v]
    for kind, x, src, dst in firsts:
        allowed, bound = (
            (_addition_allowed, top) if kind == "addition" else (_transfer_allowed, k)
        )
        mid = list(c)
        mid[src] -= 1
        mid[dst] += 1
        for y in range(1, size):
            if mid[y - 1] and allowed(x, y, bound):
                out = mid[:]
                out[y - 1] -= 1
                out[y] += 1
                yield kind, x, y, tuple(out)


def _vector(D: DegreeSequence, size: int) -> tuple[int, ...]:
    """The multiplicities of D indexed by value 0..size-1."""
    c = [0] * size
    for v, m in D.items:
        c[v] = m
    return tuple(c)


def applicable_steps(
    E: DegreeSequence, k: int
) -> Iterator[tuple[ElementaryStep, DegreeSequence]]:
    """All elementary steps applicable to E, with their results: additions
    by x, then y, ascending, then transfers likewise.  No result holds a
    value above max(E) + 1, so E's vector has room for all of them; it has
    max(E) + 2 entries, so this is for small degrees."""
    if len(E) == 0:
        return
    for kind, x, y, out in _vector_steps(_vector(E, E.max_value + 2), k):
        yield (ElementaryStep(kind, x, y),
               DegreeSequence(tuple((v, m) for v, m in enumerate(out) if m)))


def precedes(D: DegreeSequence, E: DegreeSequence, k: int) -> bool:
    """Decide reachability of D from E by elementary steps (BFS oracle).

    The states are multiplicity vectors indexed by value.  Exponential in
    general; refuses instances beyond the declared guards."""
    check_k(k)
    if len(D) != len(E):
        raise InputError("orders differ")
    target_sum, e_total = D.total, E.total
    check_limit("order", len(D), PRECEDES_MAX_ORDER)
    check_limit("degree sum", target_sum, PRECEDES_MAX_SUM)
    if D == E:
        return True
    # additions add 2 to the sum, transfers preserve it
    if target_sum < e_total or (target_sum - e_total) % 2 != 0:
        return False
    # a transfer never raises the maximum above max(current maximum, k),
    # and each of the (sum(D) - sum(E))/2 additions raises it by at most 1;
    # no value of a state exceeds its sum, which is at most sum(D)
    max_elem = min(max(E.max_value, k) + (target_sum - e_total) // 2, target_sum)
    if D.max_value > max_elem:
        return False
    goal = _vector(D, max_elem + 1)
    start = _vector(E, max_elem + 1)
    seen = {start}
    queue = deque([(start, e_total)])
    while queue:
        cur, total = queue.popleft()
        for kind, _, _, nxt in _vector_steps(cur, k, total < target_sum):
            if nxt in seen:
                continue
            if nxt == goal:
                return True
            seen.add(nxt)
            queue.append((nxt, total + 2 * (kind == "addition")))
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
    check_limit("degree sum", E.total, PRECEDES_MAX_SUM)
    m = E.max_value
    a0 = E.without_one(m)
    target = a0.total - m
    n_out = len(E) - 1
    results: list[DegreeSequence] = []
    profile: list[int] = []
    # A_0's conjugate profile through column max(A_0) + 1, where it is 0;
    # no column past that is reached
    sigma = [a0.sigma(z) for z in range(a0.max_value + 2)]

    def extend(z: int, remaining: int, prev: int) -> None:
        if remaining == 0:
            cand = from_sigma([n_out] + profile)
            if cand.is_graphical():
                results.append(cand)
            return
        cap = min(prev, sigma[z], remaining)
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
