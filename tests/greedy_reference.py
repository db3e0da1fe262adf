"""Reference implementations of a greedy realization, of MAX and of the
worst-case witness.

These are the plain versions: ``realize`` joins the two largest residual
degrees one unit edge at a time, re-sorting every vertex each time,
O(sum(D) * n log n), and ``max_run`` rescans every alive vertex for the
maximum degree and the candidates, O(n) per deletion, and checks a
script with its own code.  ``max_run`` shares no code with the level
counts and heaps of ``greedymax.graphs.max_run``, which the differential
tests compare against it; the greedy realizations are extra base graphs
for that comparison.  ``construct_worst_case``
builds the witness from the ``DegreeSequence`` terms of ``b``, keeps the
vertices in a list sorted by degree and sorts the edges at the end on the
whole triple; the package's version, which sorts on the lower end alone,
must return the same graph and script.
"""

from greedymax.errors import InputError
from greedymax.graphs import Multigraph
from greedymax.graphs import realize as stub_realize
from greedymax.omega import b


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
        key = (u, v) if u < v else (v, u)
        edges[key] = edges.get(key, 0) + 1
        residual[u] -= 1
        residual[v] -= 1
    return Multigraph(n, tuple(sorted((*key, m) for key, m in edges.items())))


def max_run(G, k, script=None, pick=min):
    """(sorted survivors, log of (deleted vertex, degree at deletion)).

    Without a script ``pick`` takes one of the sorted candidates, the
    lowest by default.  A script names every deletion, and the package's
    three messages are raised when a scripted vertex is not a candidate,
    when the script runs out and when deletions are left over."""
    if k < 1:
        raise InputError("k must be a positive integer")
    adj = G.adjacency()
    deg = G.degrees()
    alive = set(range(G.n))
    log = []
    while alive:
        delta = max(deg[v] for v in alive)
        if delta < k:
            break
        candidates = sorted(v for v in alive if deg[v] == delta)
        if script is None:
            v = pick(candidates)
        elif len(log) == len(script):
            raise InputError("deletion script exhausted before the run finished")
        else:
            v = script[len(log)]
            if v not in candidates:
                raise InputError(f"scripted vertex {v} is not of maximum degree")
        alive.remove(v)
        for u, m in (adj[v] or {}).items():
            if u in alive:
                deg[u] -= m
        log.append((v, delta))
    if script is not None and len(log) < len(script):
        left = len(script) - len(log)
        raise InputError(f"deletion script not used up: {left} left after the run finished")
    return sorted(alive), log


def construct_worst_case(D, k):
    """(witness multigraph, deletion script), level by level from the
    chain of ``b``: the new vertex u of level i gets an edge to the vertex
    at each rank r of D_{i+1} whose value rose from A_0, of that rise."""
    chain = b(D, k).chain
    j = len(chain) - 2  # chain[j] is the last nontrivial term
    if j < 0:
        return stub_realize(D), []
    G = stub_realize(chain[j])
    edges = list(G.edges)
    order = list(range(G.n - 1, -1, -1))  # the vertices by rising degree
    for i in range(j - 1, -1, -1):
        u = len(order)
        rises = [a - c for a, c in zip(chain[i].values(), chain[i + 1].values())]
        edges += [(v, u, rise) for v, rise in zip(order, rises) if rise]
        order.append(u)
    script = list(range(len(D) - 1, len(D) - 1 - j, -1)) + [0]
    return Multigraph(len(D), tuple(sorted(edges))), script
