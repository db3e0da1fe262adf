"""Independent reference for the reduction operator, used to check outputs.

This is the plain unit schedule from the definition: drop one copy of the
maximum m, then take one unit off the current maximum while it exceeds k,
otherwise off the smallest positive element.  It shares no code with the
package, so a faster core in ``src/`` is checked against the definition
rather than against itself.  Degree sequences are plain lists of ints.
"""

from __future__ import annotations


def is_graphical(values: list[int]) -> bool:
    total = sum(values)
    return total % 2 == 0 and (not values or total >= 2 * max(values))


def reduce_once(values: list[int], k: int, full: bool = False) -> dict:
    """One application of the operator.

    Returns the fields of the ``trace`` JSON payload: ``m``, ``s``,
    ``a`` (the whole schedule when ``full``, else its first m entries),
    ``omega`` (sorted) and ``degenerate``."""
    rest = sorted(values)
    m = rest.pop()
    s = sum(rest)
    if s < m + 2 * k or not rest or rest[-1] < k:
        return {"m": m, "s": s, "a": [], "omega": [0] * len(rest),
                "degenerate": True}
    mult = [0] * (rest[-1] + 1)
    for v in rest:
        mult[v] += 1
    hi, lo = rest[-1], 1
    a: list[int] = []
    reduced = None
    for i in range(1, (s if full else m) + 1):
        while lo <= hi and mult[lo] == 0:
            lo += 1
        x = hi if hi > k else lo
        a.append(x)
        mult[x] -= 1
        mult[x - 1] += 1
        if 1 <= x - 1 < lo:
            lo = x - 1
        while hi > 0 and mult[hi] == 0:
            hi -= 1
        if i == m:
            reduced = [v for v, c in enumerate(mult) for _ in range(c)]
    return {"m": m, "s": s, "a": a, "omega": reduced, "degenerate": False}


def chain(values: list[int], k: int) -> list[list[int]]:
    """D, O(D), O^2(D), ... down to the first term with maximum below k."""
    out = [sorted(values)]
    while out[-1] and out[-1][-1] >= k:
        out.append(reduce_once(out[-1], k)["omega"])
    return out


def bound(values: list[int], k: int) -> int:
    """b_k(D): the order minus the length of the reduction chain."""
    return len(values) - (len(chain(values, k)) - 1)
