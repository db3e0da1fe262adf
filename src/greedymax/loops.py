"""Loop-multigraph variant: exact minimum k-independence over realizations.

When loops are allowed (each loop adds 2 to a degree), the minimum of the
k-independence number over all realizations of a degree sequence has a
closed form.  This module provides that closed form, the extremal
construction attaining it, a brute-force independence oracle, and a
labeled enumeration of all realizations for cross-checking.  Its graphs
are ``graphs.Multigraph`` values whose keys (u, u) are loops; a loop graph
is read with ``Multigraph.from_json(data, loops=True)``.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

from .errors import InputError, LimitError
from .graphs import Multigraph
from .multiset import DegreeSequence

BRUTEFORCE_MAX_ORDER = 14
ENUM_MAX_ORDER = 6
ENUM_MAX_SUM = 26


def _split(D: DegreeSequence, k: int) -> tuple[int, int, int]:
    """(zero count, #{0 < x < k}, #{x = k})."""
    zcount = D.mu(0)
    small = sum(m for v, m in D.items if 0 < v < k)
    at_k = D.mu(k)
    return zcount, small, at_k


def alpha_k_min_loops(D: DegreeSequence, k: int) -> int:
    """Closed-form minimum of the k-independence number over all loop
    multigraphs with degree sequence D.

    Zero-degree elements simply add 1 each; on the positive part the value
    is the count of elements below k when k is even, and for odd k the
    larger of that count and half the count of elements at most k."""
    if k < 1:
        raise InputError("k must be a positive integer")
    if D.total % 2 != 0:
        raise InputError("sum of degrees must be even")
    zcount, small, at_k = _split(D, k)
    if k % 2 == 0:
        return small + zcount
    return max(small, -(-(small + at_k) // 2)) + zcount


def alpha_k_bruteforce(G: Multigraph, k: int) -> int:
    """Exact k-independence number by subset search (guarded at order 14)."""
    if k < 1:
        raise InputError("k must be a positive integer")
    if G.n > BRUTEFORCE_MAX_ORDER:
        raise LimitError(f"order {G.n} exceeds guard {BRUTEFORCE_MAX_ORDER}")
    adj = G.adjacency()
    verts = list(range(G.n))
    for size in range(G.n, -1, -1):
        for subset in combinations(verts, size):
            chosen = set(subset)
            ok = True
            for v in subset:
                d = sum(m for u, m in adj[v].items() if u in chosen)
                if d >= k:
                    ok = False
                    break
            if ok:
                return size
    return 0


def enumerate_loop_realizations(D: DegreeSequence) -> Iterator[Multigraph]:
    """Every labeled loop multigraph with degree sequence D (degrees assigned
    to vertices in sorted order; no isomorphism reduction)."""
    degrees = sorted(D.values())
    n = len(degrees)
    if n > ENUM_MAX_ORDER or D.total > ENUM_MAX_SUM:
        raise LimitError(
            f"instance exceeds guards (order <= {ENUM_MAX_ORDER}, "
            f"sum <= {ENUM_MAX_SUM})"
        )
    if D.total % 2 != 0:
        return
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    residual = degrees[:]
    assignment: dict[tuple[int, int], int] = {}

    def recurse(idx: int) -> Iterator[Multigraph]:
        if idx == len(pairs):
            if all(r == 0 for r in residual):
                yield Multigraph.from_edges(
                    n, [(u, v, m) for (u, v), m in assignment.items() if m],
                    loops=True,
                )
            return
        i, j = pairs[idx]
        cap = residual[i] // 2 if i == j else min(residual[i], residual[j])
        for m in range(cap + 1):
            assignment[(i, j)] = m
            # m at both ends: a loop (i, i) takes 2m from vertex i
            residual[i] -= m
            residual[j] -= m
            # (i, n-1) is the last pair of vertex i, so its residual must
            # now be zero (loops can still absorb residual at (j, j))
            if j < n - 1 or residual[i] == 0:
                yield from recurse(idx + 1)
            residual[i] += m
            residual[j] += m
        del assignment[(i, j)]

    yield from recurse(0)


def construct_extremal_loop_multigraph(
    D: DegreeSequence, k: int
) -> Multigraph:
    """A loop multigraph with degree sequence D attaining the closed-form
    minimum k-independence number.

    Even k: pair the odd-degree vertices with single edges and put all
    remaining degree into loops.  Odd k: a first matching pins elements at
    k against smaller elements (or each other), a second matching fixes
    parities, and the rest is loops."""
    if k < 1:
        raise InputError("k must be a positive integer")
    if len(D) == 0:
        raise InputError("degree sequence is empty")
    if any(v == 0 for v in D.values()):
        raise InputError("all elements must be positive")
    if D.total % 2 != 0:
        raise InputError("sum of degrees must be even")
    degrees = sorted(D.values())
    n = len(degrees)
    if k % 2 == 0:
        odd = [i for i in range(n) if degrees[i] % 2 == 1]
        matching = list(zip(odd[0::2], odd[1::2]))
    else:
        s = sum(1 for d in degrees if d < k)
        c = sum(1 for d in degrees if d == k)
        # elements at k pair with smaller ones, and any left over with each
        # other (none are left when c <= s)
        m1 = [(i, s + i) for i in range(min(c, s))]
        m1 += [(2 * s + 2 * i, 2 * s + 2 * i + 1) for i in range((c - s) // 2)]
        in_m1 = {v for pair in m1 for v in pair}
        v_m2 = sorted(
            [i for i in in_m1 if degrees[i] % 2 == 0]
            + [i for i in range(n) if i not in in_m1 and degrees[i] % 2 == 1]
        )
        matching = m1 + list(zip(v_m2[0::2], v_m2[1::2]))
    # the matching edges (never loops), then the rest of each degree as loops
    edge_mult: dict[tuple[int, int], int] = {}
    rest = degrees[:]
    for u, v in matching:
        key = (min(u, v), max(u, v))
        edge_mult[key] = edge_mult.get(key, 0) + 1
        rest[u] -= 1
        rest[v] -= 1
    for i in range(n):
        if rest[i]:
            edge_mult[(i, i)] = rest[i] // 2
    return Multigraph(n, tuple(sorted(edge_mult.items())))
