"""Reference implementations of a greedy realization and of MAX.

These are the plain versions: ``realize`` joins the two largest residual
degrees one unit edge at a time, re-sorting every vertex each time,
O(sum(D) * n log n), and ``max_run`` rescans every alive vertex for the
maximum degree and the candidates, O(n) per deletion.  ``max_run`` shares
no code with the degree buckets of ``greedymax.graphs.max_run``, which the
differential tests compare against it; the greedy realizations are extra
base graphs for that comparison.
"""

from greedymax.errors import InputError
from greedymax.graphs import Multigraph, lowest_index_chooser


def realize(D):
    """Join the two vertices of largest residual degree (ties to the lowest
    index) until every residual is zero."""
    if not D.is_graphical():
        raise InputError("input is not graphical")
    residual = sorted(D.values(), reverse=True)
    n = len(residual)
    edges = {}
    while True:
        order = sorted(range(n), key=lambda i: (-residual[i], i))
        if not order or residual[order[0]] == 0:
            break
        u, v = order[0], order[1]
        key = (min(u, v), max(u, v))
        edges[key] = edges.get(key, 0) + 1
        residual[u] -= 1
        residual[v] -= 1
    return Multigraph(n, tuple(sorted(edges.items())))


def max_run(G, k, chooser=None):
    """(sorted survivors, log of (deleted vertex, degree at deletion))."""
    if k < 1:
        raise InputError("k must be a positive integer")
    if chooser is None:
        chooser = lowest_index_chooser
    adj = G.adjacency()
    deg = G.degrees()
    alive = set(range(G.n))
    log = []
    while alive:
        delta = max(deg[v] for v in alive)
        if delta < k:
            break
        candidates = sorted(v for v in alive if deg[v] == delta)
        v = chooser(candidates)
        alive.remove(v)
        for u, m in adj[v].items():
            if u in alive:
                deg[u] -= m
        log.append((v, delta))
    return sorted(alive), log
