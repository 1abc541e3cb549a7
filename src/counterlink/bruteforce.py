"""Reference heuristic implementations kept independent of the CSR fast path.

verify_split re-checks every bucket assignment against these, so they must
not share code with graphs.py: plain python sets, and for SP a
level-synchronous BFS over sets that stops at the neighbour-of-target rule
(v is at depth d + 1 exactly when v has a neighbour in the depth-d
frontier), where graphs.py works on boolean masks over the CSR arrays.
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
    if u == v:
        return 0
    frontier = adj[u]
    if v in frontier:
        if not exclude_edge:
            return 1
        # Dropping v from u's first level removes edge (u, v) and nothing
        # else: v is never added to a frontier, so the edge is never walked.
        frontier = frontier - {v}
    seen = frontier | {u}
    d = 1
    while frontier:
        if not adj[v].isdisjoint(frontier):
            return d + 1
        frontier = set().union(*[adj[w] for w in frontier]) - seen
        seen |= frontier
        d += 1
    return math.inf


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
