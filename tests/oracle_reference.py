"""Reference implementations of the two exhaustive oracles.

These are the plain versions: ``max_worst_case`` searches every choice
sequence of MAX, memoised on the whole alive ``frozenset``, and
``applicable_steps``/``precedes`` run the breadth-first search over
``DegreeSequence`` states, two ``replace_one`` calls per neighbour.  They
share no search code with ``greedymax.graphs.max_worst_case`` (bitmask
components) or ``greedymax.orderlab.precedes`` (multiplicity vectors),
which the differential tests compare against them; no guards.
"""

from collections import deque

from greedymax.orderlab import ElementaryStep


def max_worst_case(G, k):
    """(minimum survivor count over every run of MAX, one witnessing script)."""
    adj = G.adjacency()
    memo = {}

    def search(alive):
        if not alive:
            return 0, ()
        if alive in memo:
            return memo[alive]
        deg = {v: sum(m for u, m in (adj[v] or {}).items() if u in alive) for v in alive}
        delta = max(deg.values())
        if delta < k:
            return len(alive), ()
        best = None
        for v in sorted(u for u in alive if deg[u] == delta):
            size, script = search(alive - {v})
            if best is None or size < best[0]:
                best = (size, (v,) + script)
        memo[alive] = best
        return best

    size, script = search(frozenset(range(G.n)))
    return size, list(script)


def applicable_steps(E, k):
    """All elementary steps applicable to E, with their results; the side
    conditions are written out here, not taken from ``orderlab``."""
    if len(E) == 0:
        return
    top = E.max_value
    for x_src, _ in E.items:
        x = x_src + 1
        mid = E.replace_one(x_src, x)
        for y_src, _ in mid.items:
            y = y_src + 1
            if x <= y <= top + 1:
                yield ElementaryStep("addition", x, y), mid.replace_one(y_src, y)
    for x, _ in E.items:
        if x == 0:
            continue
        mid = E.replace_one(x, x - 1)
        for y_src, _ in mid.items:
            y = y_src + 1
            if x > max(k, y) or x < y <= k:
                yield ElementaryStep("transfer", x, y), mid.replace_one(y_src, y)


def precedes(D, E, k):
    """Reachability of D from E by elementary steps, by BFS over sequences
    whose sum stays at most sum(D) and maximum at most
    max(max(E), k) + (sum(D) - sum(E)) / 2."""
    if D == E:
        return True
    if D.total < E.total or (D.total - E.total) % 2 != 0:
        return False
    max_elem = max(E.max_value, k) + (D.total - E.total) // 2
    seen = {E}
    queue = deque([E])
    while queue:
        for _, nxt in applicable_steps(queue.popleft(), k):
            if nxt.total > D.total or nxt.max_value > max_elem or nxt in seen:
                continue
            if nxt == D:
                return True
            seen.add(nxt)
            queue.append(nxt)
    return False
