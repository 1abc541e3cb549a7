"""Reference heuristic implementations kept independent of the CSR fast path.

The split stage re-checks the split it has just generated against these,
one pair at a time (splits.reference_value), and the tests pin the batched
heuristics to them, so they must not share code with graphs.py: plain
python sets, and for SP a bidirectional BFS over sets that expands the
smaller frontier and stops where the two sides meet, where graphs.py
settles whole edge lists with neighbour masks over the CSR arrays: one mask
per chunk of pairs for common neighbours and for walks of length 3, and BFS
levels as masks for the pairs still open.
"""

import math


def adjacency_sets(num_nodes, edges):
    """Neighbour set per node from an (m, 2) integer array of edges."""
    sets = [set() for _ in range(num_nodes)]
    for u, v in edges.tolist():
        sets[u].add(v)
        sets[v].add(u)
    return sets


def cn_brute(adj, u, v):
    return len((adj[u] & adj[v]) - {u, v})


def sp_brute(adj, u, v, exclude_edge=False):
    """Hop count from u to v, math.inf when disconnected; with exclude_edge
    the edge (u, v) itself is left out.

    Both sides keep a visited set and a frontier, disjoint from each other,
    so the distance exceeds the sum of their depths. Each step expands the
    smaller frontier; its new level meeting the other frontier gives that
    sum plus one, and an empty level means the side's component holds no v.
    """
    if u == v:
        return 0
    if v in adj[u] and not exclude_edge:
        return 1
    # Dropping v from u's first level and u from v's removes edge (u, v) and
    # nothing else: u and v are never expanded again.
    near, far = adj[u] - {v}, adj[v] - {u}
    if not near.isdisjoint(far):
        return 2
    sides = [[near, near | {u}], [far, far | {v}]]
    depth = 2
    while True:
        sides.sort(key=lambda side: len(side[0]))
        (frontier, seen), (other, _) = sides
        frontier = set().union(*[adj[w] for w in frontier]) - seen
        if not frontier:
            return math.inf
        if not frontier.isdisjoint(other):
            return depth + 1
        seen |= frontier
        sides[0][0] = frontier
        depth += 1


def pa_brute(adj, u, v):
    return len(adj[u]) * len(adj[v])


def heuristic_brute(adj, u, v, name, exclude_edge=False):
    if name == "CN":
        return cn_brute(adj, u, v)
    if name == "SP":
        return sp_brute(adj, u, v, exclude_edge=exclude_edge)
    if name == "PA":
        return pa_brute(adj, u, v)
    raise ValueError(f"unknown heuristic {name!r}")
