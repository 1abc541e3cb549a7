"""Dict-based BFS kept as the test oracle for both shortest-path implementations.

`graphs.shortest_path_length` settles distances up to 2 with one lookup and
grows both endpoints' levels as masks until they meet, and
`bruteforce.sp_brute` grows both sides as sets, smaller frontier first;
this plain queue BFS walks from u alone, builds every level and skips the
excluded edge where it meets it, so it shares none of those tricks.
"""

import math
from collections import deque


def sp_reference(adj, u, v, exclude_edge=False):
    if u == v:
        return 0
    skip = exclude_edge and v in adj[u]
    dist = {u: 0}
    q = deque([u])
    while q:
        w = q.popleft()
        for x in adj[w]:
            if skip and {w, x} == {u, v}:
                continue
            if x not in dist:
                dist[x] = dist[w] + 1
                if x == v:
                    return dist[x]
                q.append(x)
    return math.inf
