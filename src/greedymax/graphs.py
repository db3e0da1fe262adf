"""Multigraphs, the greedy deletion algorithm, and worst-case witnesses.

``Multigraph`` is the one multigraph type of the package.  It is loopless
unless built with ``loops=True``, which only the loop variant in ``loops``
does.

The greedy algorithm repeatedly deletes a vertex of maximum degree until
the remainder has maximum degree below k; the survivors form a maximal
k-independent set.  max_worst_case exhausts every legal choice sequence,
and construct_worst_case builds, for any graphical D, a multigraph plus a
deletion script whose survivor count meets the bound from the omega chain
exactly.  ``realize`` pairs degree stubs in closed form, so neither it nor
the witness costs more as the degrees grow.
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Callable, NamedTuple, Sequence

from .errors import InputError, LimitError, check_k
from .multiset import MAX_DEGREE_SUM, DegreeSequence, check_degree_sum
from .omega import b

WORST_CASE_MAX_ORDER = 9

Chooser = Callable[[Sequence[int]], int]


class Multigraph(NamedTuple):
    """Multigraph on vertices 0..n-1; edges keyed by ordered pair u <= v.

    A key (u, u) is a loop and adds 2 to the degree of u."""

    n: int
    edges: tuple[tuple[tuple[int, int], int], ...]

    @staticmethod
    def from_edges(n: int, edges, loops: bool = False) -> "Multigraph":
        """Build from an iterable of (u, v, mult) items of integers; a loop
        (u, u) is rejected unless ``loops`` is set.

        Raises LimitError when n exceeds MAX_DEGREE_SUM: a greedy run
        allocates O(n), and a graph file may state any n."""
        if type(n) is not int:
            raise InputError(f"vertex count {n!r} must be an integer")
        if n < 0:
            raise InputError(f"vertex count {n} must be nonnegative")
        if n > MAX_DEGREE_SUM:
            raise LimitError(f"vertex count {n} exceeds guard {MAX_DEGREE_SUM}")
        acc: dict[tuple[int, int], int] = {}
        for item in edges:
            if len(item) != 3:
                raise InputError(f"edge item {item!r} must be [u, v, multiplicity]")
            u, v, m = item
            if type(u) is not int or type(v) is not int or type(m) is not int:
                raise InputError(
                    f"edge {item!r}: vertices and multiplicity must be integers"
                )
            if u == v and not loops:
                raise InputError("loops are not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"vertex out of range in edge ({u},{v})")
            if m < 1:
                raise InputError("edge multiplicity must be positive")
            key = (min(u, v), max(u, v))
            acc[key] = acc.get(key, 0) + m
        return Multigraph(n, tuple(sorted(acc.items())))

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for (a, c), m in self.edges:
            deg[a] += m
            deg[c] += m
        return deg

    def degree_sequence(self) -> DegreeSequence:
        return DegreeSequence.from_values(self.degrees())

    def adjacency(self) -> list[dict[int, int]]:
        """adj[u][v] is the degree u takes from v: the multiplicity of uv,
        or twice the number of loops when v == u."""
        adj: list[dict[int, int]] = [dict() for _ in range(self.n)]
        for (a, c), m in self.edges:
            adj[a][c] = adj[c][a] = 2 * m if a == c else m
        return adj

    def to_json(self) -> dict:
        return {"n": self.n, "edges": [[u, v, m] for (u, v), m in self.edges]}

    @staticmethod
    def from_json(data: dict, loops: bool = False) -> "Multigraph":
        try:
            return Multigraph.from_edges(data["n"], data.get("edges", []), loops)
        except InputError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed multigraph JSON: {exc}") from exc


def degree_sequence_of(G: Multigraph) -> DegreeSequence:
    return G.degree_sequence()


def realize(D: DegreeSequence) -> Multigraph:
    """Deterministic loopless multigraph with degree sequence D, by stub
    pairing.

    The vertices are labelled by nonincreasing degree, and vertex v holds a
    block of deg(v) consecutive stubs.  Each stub i < h, where h = sum(D)/2,
    is joined to stub i + h.  On a graphical D no block is longer than h,
    so no stub meets its own vertex.  One walk over the block ends gives the
    edges sorted and distinct, at most one per positive degree, so the
    cost is O(n) whatever the size of the degrees."""
    if not D.is_graphical():
        raise InputError("input is not graphical")
    ends = list(accumulate(d for d, c in reversed(D.items) if d for _ in range(c)))
    half = D.total // 2
    # u holds stub i and v holds stub i + half; both only move up
    edges: list[tuple[tuple[int, int], int]] = []
    i, u, v = 0, 0, bisect_right(ends, half)
    while i < half:
        stop = min(ends[u], ends[v] - half)
        edges.append(((u, v), stop - i))
        i = stop
        if ends[u] == stop:
            u += 1
        if ends[v] - half == stop:
            v += 1
    return Multigraph(len(D), tuple(edges))


def lowest_index_chooser(candidates: Sequence[int]) -> int:
    return min(candidates)


def make_scripted_chooser(script: list[int]) -> Chooser:
    """Chooser that replays a fixed deletion script (original vertex labels).

    It expects the candidates in ascending order, as max_run passes them."""
    if not isinstance(script, list) or any(type(v) is not int for v in script):
        raise InputError("deletion script must be a list of vertex integers")
    it = iter(script)

    def choose(candidates: Sequence[int]) -> int:
        try:
            v = next(it)
        except StopIteration:
            raise InputError("deletion script exhausted before the run finished")
        i = bisect_left(candidates, v)
        if i == len(candidates) or candidates[i] != v:
            raise InputError(f"scripted vertex {v} is not of maximum degree")
        return v

    return choose


def max_run(
    G: Multigraph, k: int, chooser: Chooser | None = None
) -> tuple[list[int], list[tuple[int, int]]]:
    """One application of the greedy deletion algorithm.

    Returns (surviving vertex list, log of (deleted vertex, degree at
    deletion)).  Vertices keep their original labels throughout.  Alive
    vertices of degree at least k are filed in ``buckets`` by degree, and
    ``levels`` is a max-heap, stored negated, of the degrees that have a
    bucket.  A vertex whose degree falls is filed again, and ``deg`` tells
    which entries are still valid.  After O(n + |E|) set-up a deletion
    costs O(log n) per edge of the deleted vertex plus the length of the
    candidate list, instead of a scan over all n vertices."""
    check_k(k)
    if chooser is None:
        chooser = lowest_index_chooser
    adj = G.adjacency()
    deg = G.degrees()
    buckets: dict[int, list[int]] = {}
    for v, d in enumerate(deg):
        if d >= k:
            buckets.setdefault(d, []).append(v)
    levels = [-d for d in buckets]
    heapq.heapify(levels)
    log: list[tuple[int, int]] = []
    while levels:
        delta = -heapq.heappop(levels)
        # no degree rises, so this round leaves no vertex at delta
        bucket = sorted(v for v in buckets.pop(delta) if deg[v] == delta)
        while bucket:
            v = chooser(bucket[:])
            bucket.remove(v)
            deg[v] = -1  # deleted: matches no bucket
            for u, m in adj[v].items():
                d = deg[u]
                if d < 0:
                    continue
                if d == delta:
                    del bucket[bisect_left(bucket, u)]
                deg[u] = d = d - m
                if d >= k:
                    if d in buckets:
                        buckets[d].append(u)
                    else:
                        buckets[d] = [u]
                        heapq.heappush(levels, -d)
            log.append((v, delta))
    return [v for v in range(G.n) if deg[v] >= 0], log


def max_worst_case(G: Multigraph, k: int) -> tuple[int, list[int]]:
    """Exact minimum survivor count over every legal choice sequence of the
    greedy algorithm, with one witnessing deletion script.

    Depth-first search over choice trees, memoized on the surviving vertex
    set (which determines the residual subgraph exactly)."""
    check_k(k)
    if G.n > WORST_CASE_MAX_ORDER:
        raise LimitError(f"graph order {G.n} exceeds guard {WORST_CASE_MAX_ORDER}")
    adj = G.adjacency()
    memo: dict[frozenset, tuple[int, tuple[int, ...]]] = {}

    def search(alive: frozenset) -> tuple[int, tuple[int, ...]]:
        if not alive:
            return 0, ()
        if alive in memo:
            return memo[alive]
        deg = {v: sum(m for u, m in adj[v].items() if u in alive) for v in alive}
        delta = max(deg.values())
        if delta < k:
            return len(alive), ()
        best: tuple[int, tuple[int, ...]] | None = None
        for v in sorted(u for u in alive if deg[u] == delta):
            size, script = search(alive - {v})
            if best is None or size < best[0]:
                best = (size, (v,) + script)
        assert best is not None
        memo[alive] = best
        return best

    size, script = search(frozenset(range(G.n)))
    return size, list(script)


def construct_worst_case(
    D: DegreeSequence, k: int
) -> tuple[Multigraph, list[int]]:
    """Multigraph with degree sequence D plus a legal deletion script whose
    survivor count is exactly the omega-chain bound.

    Takes the reduction chain D = D_0, D_1, ..., D_j of ``b`` down to the
    last term whose reduction is trivial and realizes D_j directly.  That
    reduction is degenerate, so deleting a vertex of degree max(D_j) leaves
    fewer than k edges or every other degree below k: in any realization
    with vertex 0 of maximum degree, as ``realize``'s, one deletion of
    vertex 0 finishes the run.  It then rebuilds D_{j-1}, ...,
    D_0, each level adding a vertex u of degree m = max(D_i), so that the
    script deletes n-1, ..., n-j and then 0.  Below the top rank, sorted D_i
    is A_0, D_i less one copy of m, and D_{i+1} is A_0 after m unit
    decrements.  Each decrement lowers exactly one rank of the sorted
    sequence, so the rise A_0[r] - D_{i+1}[r] at every rank r is >= 0 and
    the rises sum to m: u gets an edge of that multiplicity to the vertex
    that holds rank r.  The vertices are kept in a list sorted by degree
    (``realize`` labels them by decreasing degree, and each new vertex is
    the top rank), and one merge walk over the runs of the two terms finds
    the ranges of equal rise, so a level costs O(d + vertices raised)
    whatever the size of the degrees.  The witness has at most
    min(sum(D), n(n - 1))/2 edges, so LimitError is raised only when both
    exceed MAX_DEGREE_SUM."""
    chain = b(D, k).chain
    if D.order * (D.order - 1) > MAX_DEGREE_SUM:
        check_degree_sum(D)
    j = len(chain) - 2  # chain[j] is the last nontrivial term
    if j < 0:
        return realize(D), []
    G = realize(chain[j])
    edges = list(G.edges)
    order = list(range(G.n - 1, -1, -1))  # the vertices by rising degree
    for i in range(j - 1, -1, -1):
        u = len(order)  # the new vertex, above every rank of D_{i+1}
        # split each run of D_{i+1} at the run ends of D_i, whose ranks
        # below u are those of A_0
        above = iter(chain[i].items)
        a = a_end = r = 0
        for c, count in chain[i + 1].items:
            c_end = r + count
            while r < c_end:
                if r == a_end:
                    a, more = next(above)
                    a_end += more
                stop = min(a_end, c_end)
                if a > c:
                    edges.extend([((v, u), a - c) for v in order[r:stop]])
                r = stop
        order.append(u)
    script = list(range(len(D) - 1, len(D) - 1 - j, -1)) + [0]
    return Multigraph(len(D), tuple(sorted(edges))), script


def random_rewiring(
    G: Multigraph, steps: int, rng: random.Random
) -> Multigraph:
    """Degree-preserving perturbation: repeated 2-edge swaps
    (u,v),(x,y) -> (u,x),(v,y), rejecting swaps that would create loops."""
    slots: list[tuple[int, int]] = []
    for (u, v), m in G.edges:
        slots.extend([(u, v)] * m)
    for _ in range(steps):
        if len(slots) < 2:
            break
        i, j = rng.sample(range(len(slots)), 2)
        u, v = slots[i]
        x, y = slots[j]
        if u == x or v == y:
            continue
        slots[i] = (min(u, x), max(u, x))
        slots[j] = (min(v, y), max(v, y))
    return Multigraph.from_edges(G.n, [(u, v, 1) for u, v in slots])
