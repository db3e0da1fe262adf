"""Multigraphs, the greedy deletion algorithm, and worst-case witnesses.

``Multigraph`` is the one multigraph type of the package.  It is loopless
unless built with ``loops=True``, which only the loop variant in ``loops``
does.

The greedy algorithm repeatedly deletes a vertex of maximum degree until
the remainder has maximum degree below k; the survivors form a maximal
k-independent set.  max_worst_case exhausts every legal choice sequence,
one connected component at a time, under a budget of search states, and
construct_worst_case builds, for any graphical D, a multigraph plus a
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

from .errors import InputError, check_k, check_limit
from .multiset import MAX_DEGREE_SUM, DegreeSequence
from .omega import chain_runs

# max_worst_case refuses to search a connected component of more vertices,
# and more component states than the budget in all.  A state costs about
# 20-90 us up to order 64 (one core of a 2-vCPU VM), so a refused search
# stops within a few seconds.
WORST_CASE_MAX_COMPONENT = 64
WORST_CASE_MAX_STATES = 50_000

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
        check_limit("vertex count", n, MAX_DEGREE_SUM)
        acc: dict[tuple[int, int], int] = {}
        for item in edges:
            if len(item) != 3:
                raise InputError(f"edge item {item!r} must be [u, v, multiplicity]")
            u, v, m = item
            if type(u) is not int or type(v) is not int or type(m) is not int:
                raise InputError(
                    f"edge {item!r}: vertices and multiplicity must be integers"
                )
            if u > v:
                u, v = v, u
            elif u == v and not loops:
                raise InputError("loops are not allowed")
            if u < 0 or v >= n:
                # named as given, before the swap
                raise InputError(f"vertex out of range in edge ({item[0]},{item[1]})")
            if m < 1:
                raise InputError("edge multiplicity must be positive")
            key = (u, v)
            if key in acc:
                acc[key] += m
            else:
                acc[key] = m
        return Multigraph(n, tuple(sorted(acc.items())))

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for (a, c), m in self.edges:
            deg[a] += m
            deg[c] += m
        return deg

    def degree_sequence(self) -> DegreeSequence:
        return DegreeSequence.from_values(self.degrees())

    def adjacency(self) -> list[dict[int, int] | None]:
        """adj[u][v] is the degree u takes from v: the multiplicity of uv,
        or twice the number of loops when v == u.  Only a vertex with an
        edge has a row, and adj[u] is None for the others, so a vertex
        without edges costs one list slot, not a dict."""
        adj: list[dict[int, int] | None] = [None] * self.n
        for (a, c), m in self.edges:
            if adj[a] is None:
                adj[a] = {}
            if adj[c] is None:
                adj[c] = {}
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
    which entries are still valid.  The set-up is one pass over the edges
    for the adjacency, which holds rows only for the vertices with an edge,
    and one for the degree list.  A deletion then costs O(log n) per edge
    of the deleted vertex plus the length of the candidate list, instead of
    a scan over all n vertices."""
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

    The search runs on connected components.  In a run of MAX the maximum
    degree never rises, so the degrees at deletion are nonincreasing.  If
    G is the disjoint union of C1 and C2, a run on G restricted to C1 is a
    legal run on C1, since a vertex of global maximum degree has C1's
    maximum degree.  Conversely, two legal runs on C1 and C2 merge into a
    legal run on G: at each step, take the next deletion whose degree is
    the larger.  So the survivor counts G allows are the sums of those of
    C1 and C2, and the minimum over G is the sum of the minima.  The
    witnessing script is built that way too, by merging the component
    scripts by degree at deletion, highest first.

    A state is one connected component of the alive vertices, as a bitmask
    over its top-level component, and its minimum is memoised: depth-first
    search deletes each vertex of maximum degree in turn and splits the
    rest into components.  A component whose maximum degree is below k
    keeps all its vertices and is never searched.  LimitError is raised on
    a searched component of more than WORST_CASE_MAX_COMPONENT vertices,
    which bounds the cost of a state and the depth of the search, and when
    the components together search more than WORST_CASE_MAX_STATES states."""
    check_k(k)
    adj = G.adjacency()
    seen: set[int] = set()
    size, states = G.n, 0
    parts: list[list[tuple[int, int]]] = []
    # only a component with a vertex of degree k or more is searched
    for root, row in enumerate(adj):
        if row is None or root in seen or sum(row.values()) < k:
            continue
        seen.add(root)
        comp = [root]
        for v in comp:
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    comp.append(u)
        search = _ComponentSearch(adj, comp, k, states)
        whole = (1 << len(comp)) - 1
        size, states = size + search.solve(whole) - len(comp), search.states
        parts.append(search.script(whole))
    merged = heapq.merge(*parts, key=lambda pair: -pair[0])
    return size, [v for _, v in merged]


class _ComponentSearch:
    """The worst-case search on one connected component, whose vertices are
    the bits of a mask in the order of ``comp``, after ``states`` states
    searched in other components."""

    def __init__(
        self, adj: list[dict[int, int] | None], comp: list[int], k: int, states: int
    ):
        check_limit("connected component order", len(comp), WORST_CASE_MAX_COMPONENT)
        bit = {v: 1 << i for i, v in enumerate(comp)}
        # the neighbours of each vertex, grouped by the degree they give it,
        # and all of them
        self.groups: list[list[tuple[int, int]]] = []
        self.reach: list[int] = []
        for v in comp:
            masks: dict[int, int] = {}
            for u, m in adj[v].items():
                masks[m] = masks.get(m, 0) | bit[u]
            self.groups.append(list(masks.items()))
            self.reach.append(sum(masks.values()))
        self.comp, self.k = comp, k
        self.what = f"worst-case search in a {len(comp)}-vertex component: component state"
        # every run on a connected loopless graph leaves a vertex
        self.floor = int(all(v not in adj[v] for v in comp))
        # a searched state: (minimum, deleted bit, its degree, components left)
        self.memo: dict[int, tuple[int, int, int, tuple[int, ...]]] = {}
        self.states = states

    def split(self, rest: int, i: int) -> tuple[int, ...]:
        """The connected components of ``rest``, a connected set less its
        vertex i.  Each holds a neighbour of i, so one flood from each
        neighbour not yet reached finds them, and a flood that reaches
        every such neighbour holds all that is left."""
        if rest in self.memo:
            return (rest,)
        reach, out = self.reach, []
        seeds = reach[i] & rest
        while rest:
            comp = frontier = seeds & -seeds
            while frontier and seeds & ~comp:
                low = frontier & -frontier
                frontier ^= low
                new = reach[low.bit_length() - 1] & rest & ~comp
                comp |= new
                frontier |= new
            if not seeds & ~comp:
                comp = rest
            out.append(comp)
            rest ^= comp
            seeds &= rest
        return tuple(out)

    def solve(self, alive: int) -> int:
        """The minimum survivor count on a connected alive set."""
        hit = self.memo.get(alive)
        if hit is not None:
            return hit[0]
        delta, tops, rest = 0, [], alive
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            d = 0
            for m, mask in self.groups[i]:
                d += m * (mask & alive).bit_count()
            if d > delta:
                delta, tops = d, [i]
            elif d == delta:
                tops.append(i)
        if delta < self.k:
            return alive.bit_count()
        self.states += 1
        check_limit(self.what, self.states, WORST_CASE_MAX_STATES)
        best = None
        for i in tops:
            pieces = self.split(alive ^ 1 << i, i)
            found = 0
            for piece in pieces:
                found += self.solve(piece)
            if best is None or found < best[0]:
                best = (found, i, delta, pieces)
                if found == self.floor:
                    break
        assert best is not None
        self.memo[alive] = best
        return best[0]

    def script(self, alive: int) -> list[tuple[int, int]]:
        """The witnessing deletions on a connected alive set, as (degree,
        vertex) pairs by nonincreasing degree."""
        hit = self.memo.get(alive)
        if hit is None:  # a component that keeps all its vertices
            return []
        _, i, delta, pieces = hit
        rest = heapq.merge(*map(self.script, pieces), key=lambda pair: -pair[0])
        return [(delta, self.comp[i]), *rest]


def construct_worst_case(
    D: DegreeSequence, k: int
) -> tuple[Multigraph, list[int]]:
    """Multigraph with degree sequence D plus a legal deletion script whose
    survivor count is exactly the omega-chain bound.

    Takes the reduction chain D = D_0, D_1, ..., D_j down to the last term
    whose reduction is trivial, each term as the runs ``chain_runs``
    keeps, and realizes D_j directly.  That reduction is degenerate, so
    deleting a vertex of degree max(D_j) leaves fewer than k edges or every
    other degree below k: in any realization with vertex 0 of maximum
    degree, as ``realize``'s, one deletion of vertex 0 finishes the run.
    It then rebuilds D_{j-1}, ..., D_0, each level adding a vertex
    u = n - 1 - i of degree m = max(D_i), so that the script deletes
    n-1, ..., n-j and then 0.  Below the top rank, sorted D_i is A_0, D_i
    less one copy of m, and D_{i+1} is A_0 after m unit decrements.  Each
    decrement lowers exactly one rank of the sorted sequence, so the rise
    A_0[r] - D_{i+1}[r] at every rank r is >= 0 and the rises sum to m: u
    gets an edge of that multiplicity to the vertex that holds rank r.

    That vertex is fixed in closed form: ``realize`` labels D_j by falling
    degree, so rank r < n - j holds vertex n - j - 1 - r, and each new
    vertex takes the top rank, so rank r >= n - j holds vertex r.  One
    merge walk over the runs of the two terms finds the ranges of equal
    rise, so a level costs O(d + vertices raised) for d runs, whatever the
    size of the degrees.  Each edge is filed under its lower end, the edges
    of D_j first and then the levels by rising u, so reading the lists by
    label gives the edges sorted, with no sort.  The witness has at most
    min(sum(D), n(n - 1))/2 edges, so LimitError is raised only when both
    exceed MAX_DEGREE_SUM."""
    terms = chain_runs(D, k)
    if D.order * (D.order - 1) > MAX_DEGREE_SUM:
        check_limit("degree sum", D.total, MAX_DEGREE_SUM)
    j = len(terms) - 2  # terms[j] is the last nontrivial term
    if j < 0:
        return realize(D), []
    n = len(D)
    top = n - j  # the order of D_j
    order = [*range(top - 1, -1, -1), *range(top, n)]  # the vertex at each rank
    # the edges, filed under their lower end
    below: list[list[tuple[tuple[int, int], int]]] = [[] for _ in range(n)]
    for edge in realize(DegreeSequence(terms[j])).edges:
        below[edge[0][0]].append(edge)
    for i in range(j - 1, -1, -1):
        u = n - 1 - i  # the new vertex, at rank u above every rank of D_{i+1}
        # split each run of D_{i+1} at the run ends of D_i, whose ranks
        # below u are those of A_0
        above = iter(terms[i])
        a = a_end = r = 0
        for c, count in terms[i + 1]:
            c_end = r + count
            while r < c_end:
                if r == a_end:
                    a, more = next(above)
                    a_end += more
                stop = a_end if a_end < c_end else c_end
                if a > c:
                    rise = a - c
                    for v in order[r:stop]:
                        below[v].append(((v, u), rise))
                r = stop
    script = list(range(n - 1, top - 1, -1)) + [0]
    return Multigraph(n, tuple([edge for edges in below for edge in edges])), script


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
