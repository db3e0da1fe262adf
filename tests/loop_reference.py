"""Reference versions of the loop-variant oracles.

These are the plain versions: ``enumerate_loop_realizations`` recurses
once per vertex pair (i, j), i <= j, in row-major order and builds each
realization through ``Multigraph.from_edges(..., loops=True)``, and
``alpha_k_bruteforce`` builds a set for every subset it tests.  They share
no search code with ``greedymax.loops``, which the differential tests in
``test_loops.py`` compare against them.
"""

from itertools import combinations

from greedymax.graphs import Multigraph


def enumerate_loop_realizations(D):
    """Every labelled loop multigraph with degree sequence D, degrees
    assigned to vertices in sorted order; no guards."""
    degrees = sorted(D.values())
    n = len(degrees)
    if D.total % 2 != 0:
        return
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    residual = degrees[:]
    assignment = {}

    def recurse(idx):
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
            residual[i] -= m
            residual[j] -= m
            # (i, n-1) is the last pair of vertex i
            if j < n - 1 or residual[i] == 0:
                yield from recurse(idx + 1)
            residual[i] += m
            residual[j] += m
        del assignment[(i, j)]

    yield from recurse(0)


def alpha_k_bruteforce(G, k):
    """Largest vertex set in which every vertex has induced degree < k, a
    loop counting twice; no guards."""
    adj = G.adjacency()
    verts = list(range(G.n))
    for size in range(G.n, -1, -1):
        for subset in combinations(verts, size):
            chosen = set(subset)
            ok = True
            for v in subset:
                d = sum(m for u, m in (adj[v] or {}).items() if u in chosen)
                if d >= k:
                    ok = False
                    break
            if ok:
                return size
    return 0
