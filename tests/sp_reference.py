"""Dict-based BFS kept as the test oracle for both shortest-path implementations.

`graphs.shortest_path_length` settles distances 2 and 3 with neighbour masks
and grows both endpoints' levels as masks until they meet, and
`bruteforce.sp_brute` grows both sides as sets, smaller frontier first;
this plain queue BFS walks from u alone, builds every level and skips the
edge (u, v) where it meets it, so it shares none of those tricks.
"""

import math
from collections import deque


def sp_reference(adj, u, v):
    """Hop count from u to v with the edge (u, v) left out, math.inf when
    disconnected."""
    if u == v:
        return 0
    dist = {u: 0}
    q = deque([u])
    while q:
        w = q.popleft()
        for x in adj[w]:
            if {w, x} == {u, v}:
                continue
            if x not in dist:
                dist[x] = dist[w] + 1
                if x == v:
                    return dist[x]
                q.append(x)
    return math.inf
