"""Multigraphs, the greedy deletion algorithm, and worst-case witnesses.

``Multigraph`` is the one multigraph type of the package.  It is loopless
unless built with ``loops=True``, which only the loop variant in ``loops``
does.

The greedy algorithm repeatedly deletes a vertex of maximum degree until
the remainder has maximum degree below k; the survivors form a maximal
k-independent set.  max_worst_case exhausts every legal choice sequence,
and construct_worst_case builds, for any graphical D, a multigraph plus a
deletion script whose survivor count meets the bound from the omega chain
exactly.
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import InputError, LimitError
from .multiset import MAX_DEGREE_SUM, DegreeSequence, check_degree_sum
from .omega import reduction_chain

WORST_CASE_MAX_ORDER = 9

Chooser = Callable[[Sequence[int]], int]


class _DegreeIndex:
    """Vertices bucketed by degree, shared by realize, max_run and
    construct_worst_case.

    ``deg[v]`` is the current degree of v, ``buckets[d]`` a min-heap of the
    vertices of degree d (so the lowest index pops first) and ``levels`` a
    max-heap, stored negated, of the degrees that have a bucket.  Each
    caller moves every vertex one way only (degrees fall in realize and
    max_run and rise in construct_worst_case), so an entry that ``push``
    leaves behind in the old bucket never becomes valid again; ``members``
    drops such entries."""

    __slots__ = ("deg", "buckets", "levels")

    def __init__(self, deg: list[int]):
        self.deg = deg
        self.buckets: dict[int, list[int]] = {}
        for v, d in enumerate(deg):
            # ascending v: each bucket is built sorted, which is a heap
            self.buckets.setdefault(d, []).append(v)
        self.levels = [-d for d in self.buckets]
        heapq.heapify(self.levels)

    def top(self) -> int:
        """Highest degree whose bucket is not empty, -1 when there is none;
        empty buckets found on the way are removed."""
        levels, buckets = self.levels, self.buckets
        while levels and not buckets[-levels[0]]:
            del buckets[-heapq.heappop(levels)]
        return -levels[0] if levels else -1

    def pop(self, d: int) -> int:
        """Remove and return the lowest vertex in bucket d."""
        return heapq.heappop(self.buckets[d])

    def push(self, v: int, d: int) -> None:
        """Give v degree d and file it in bucket d."""
        self.deg[v] = d
        bucket = self.buckets.get(d)
        if bucket is None:
            self.buckets[d] = [v]
            heapq.heappush(self.levels, -d)
        else:
            heapq.heappush(bucket, v)

    def members(self, d: int) -> list[int]:
        """Bucket d itself, cut down to the vertices whose degree is d and
        sorted ascending."""
        deg = self.deg
        live = [v for v in self.buckets[d] if deg[v] == d]
        live.sort()
        self.buckets[d] = live
        return live


@dataclass(frozen=True)
class Multigraph:
    """Multigraph on vertices 0..n-1; edges keyed by ordered pair u <= v.

    A key (u, u) is a loop and adds 2 to the degree of u."""

    n: int
    edges: tuple[tuple[tuple[int, int], int], ...]

    @staticmethod
    def from_edges(n: int, edges, loops: bool = False) -> "Multigraph":
        """Build from an iterable of ((u, v), mult) or (u, v, mult) items of
        integers; a loop (u, u) is rejected unless ``loops`` is set.

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
            if len(item) == 3:
                u, v, m = item
            elif len(item) == 2:
                (u, v), m = item
            else:
                raise InputError(f"edge item {item!r} must have length 2 or 3")
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
    """Deterministic multigraph with degree sequence D: repeatedly join the
    two vertices of largest residual degree (ties to the lowest index).

    Each unit edge costs two pops and two pushes on the residual-degree
    index, so the whole realization costs O(n + sum(D) log n)."""
    if not D.is_graphical():
        raise InputError("input is not graphical")
    # vertices are labelled by decreasing degree, so the positive degrees
    # come first; zero-degree vertices, and any vertex whose residual
    # reaches 0, stay out of the index
    index = _DegreeIndex([d for d, c in reversed(D.items) if d for _ in range(c)])
    edges: dict[tuple[int, int], int] = {}
    while (top := index.top()) > 0:
        u = index.pop(top)
        second = index.top()
        v = index.pop(second)
        key = (u, v) if u < v else (v, u)
        edges[key] = edges.get(key, 0) + 1
        if top > 1:
            index.push(u, top - 1)
        if second > 1:
            index.push(v, second - 1)
    return Multigraph(len(D), tuple(sorted(edges.items())))


def lowest_index_chooser(candidates: Sequence[int]) -> int:
    return min(candidates)


def make_scripted_chooser(script: Sequence[int]) -> Chooser:
    """Chooser that replays a fixed deletion script (original vertex labels).

    It expects the candidates in ascending order, as max_run passes them."""
    it = iter(script)

    def choose(candidates: Sequence[int]) -> int:
        try:
            v = next(it)
        except StopIteration:
            raise InputError("deletion script exhausted before the run finished")
        i = bisect_left(candidates, v) if isinstance(v, int) else len(candidates)
        if i == len(candidates) or candidates[i] != v:
            raise InputError(f"scripted vertex {v} is not of maximum degree")
        return v

    return choose


def max_run(
    G: Multigraph, k: int, chooser: Chooser | None = None
) -> tuple[list[int], list[tuple[int, int]]]:
    """One application of the greedy deletion algorithm.

    Returns (surviving vertex list, log of (deleted vertex, degree at
    deletion)).  Vertices keep their original labels throughout.  The alive
    vertices sit in a degree index, so after O(n + |E|) set-up a deletion
    costs O(log n) per edge of the deleted vertex plus the length of the
    candidate list, instead of a scan over all n vertices."""
    if k < 1:
        raise InputError("k must be a positive integer")
    if chooser is None:
        chooser = lowest_index_chooser
    adj = G.adjacency()
    index = _DegreeIndex(G.degrees())
    deg = index.deg
    log: list[tuple[int, int]] = []
    while True:
        delta = index.top()
        if delta < k:
            break
        # no degree rises, so bucket delta only loses vertices from here on
        bucket = index.members(delta)
        while bucket:
            v = chooser(bucket[:])
            bucket.remove(v)
            deg[v] = -1  # deleted: matches no bucket
            for u, m in adj[v].items():
                d = deg[u]
                if d == delta:
                    del bucket[bisect_left(bucket, u)]
                if d - m >= k:
                    index.push(u, d - m)
                elif d >= 0:
                    deg[u] = d - m  # alive, but never a candidate again
            log.append((v, delta))
    return [v for v in range(G.n) if deg[v] >= 0], log


def max_worst_case(G: Multigraph, k: int) -> tuple[int, list[int]]:
    """Exact minimum survivor count over every legal choice sequence of the
    greedy algorithm, with one witnessing deletion script.

    Depth-first search over choice trees, memoized on the surviving vertex
    set (which determines the residual subgraph exactly)."""
    if k < 1:
        raise InputError("k must be a positive integer")
    if G.n > WORST_CASE_MAX_ORDER:
        raise LimitError(f"graph order {G.n} exceeds guard {WORST_CASE_MAX_ORDER}")
    adj = G.adjacency()
    memo: dict[frozenset, tuple[int, tuple[int, ...]]] = {}

    def search(alive: frozenset) -> tuple[int, tuple[int, ...]]:
        if not alive:
            return 0, ()
        deg = {v: sum(m for u, m in adj[v].items() if u in alive) for v in alive}
        delta = max(deg.values())
        if delta < k:
            return len(alive), ()
        if alive in memo:
            return memo[alive]
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

    Walks the reduction chain D = D_0, D_1, ..., D_j down to the last term
    whose reduction is trivial, realizes D_j directly (one deletion finishes
    its run), then rebuilds D_{j-1}, ..., D_0: each level appends a new
    maximum-degree vertex and wires it back along the reversed first m
    entries of that level's decrement schedule, always attaching to the
    lowest-index vertex of the needed degree.  Raises LimitError when
    sum(D) exceeds MAX_DEGREE_SUM."""
    if k < 1:
        raise InputError("k must be a positive integer")
    if not D.is_graphical():
        raise InputError("input is not graphical")
    check_degree_sum(D)
    if D.is_trivial(k):
        return realize(D), []
    heads: list[list[int]] = []
    chain = reduction_chain(D, k, heads)
    j = len(chain) - 2  # chain[j] is the last nontrivial term
    G = realize(chain[j])
    index = _DegreeIndex(G.degrees())
    deg = index.deg
    script = [len(D) - 1 - i for i in range(j)] + [deg.index(max(deg))]
    edges = dict(G.edges)
    for head in reversed(heads[:j]):
        u = len(deg)  # the new maximum-degree vertex
        # replay the first m decrements in reverse: the i-th of them gives
        # the new vertex an edge to a vertex of degree a_i - 1
        for want in reversed(head):
            target = index.pop(want - 1)
            edges[(target, u)] = edges.get((target, u), 0) + 1
            index.push(target, want)
        deg.append(len(head))
        index.push(u, len(head))
    return Multigraph(len(D), tuple(sorted(edges.items()))), script


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
