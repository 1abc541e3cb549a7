"""Per-entry CSR propagation and set-and-dict subgraph extraction, kept as oracles.

`graphs.Csr.matmul_dense` sums each row's entries in falling-degree passes,
and `graphs.extract_for_links` extracts a whole link list at once over sorted
`link * n + node` keys (`extract_enclosing_subgraph` is its one-link case).
These are the implementations they replaced: one `np.add.at` scatter, and
one link at a time with per-neighbour Python sets plus a dict from global to
local ids. Both results must match these byte for byte.
"""

import numpy as np

from counterlink.errors import InputError
from counterlink.graphs import Edge, Graph, LabeledSubgraph


def matmul_dense_reference(csr, x):
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros((csr.shape[0], x.shape[1]), dtype=np.float64)
    if csr.indices.size:
        np.add.at(out, csr.row_ids(), csr.data[:, None] * x[csr.indices])
    return out


def _khop_ball(g: Graph, start: int, k: int) -> set:
    seen = {start}
    frontier = [start]
    for _ in range(k):
        nxt = []
        for w in frontier:
            for x in g.neighbors(w):
                xi = int(x)
                if xi not in seen:
                    seen.add(xi)
                    nxt.append(xi)
        frontier = nxt
    return seen


def extract_reference(
    g: Graph,
    e: Edge,
    k: int = 1,
    max_nodes: int = 1000,
    rng: np.random.Generator = None,
    exclude_target_edge: bool = True,
) -> LabeledSubgraph:
    if k < 1:
        raise InputError(f"hop count must be >= 1, got {k}")
    if max_nodes < 2:
        raise InputError(f"max_nodes must be >= 2, got {max_nodes}")
    u, v = int(e.u), int(e.v)
    g._check_node(u)
    g._check_node(v)

    nodes = _khop_ball(g, u, k) | _khop_ball(g, v, k)
    nodes.discard(u)
    nodes.discard(v)
    rest = np.array(sorted(nodes), dtype=np.int64)
    if rest.size > max_nodes - 2:
        if rng is None:
            rng = np.random.default_rng(0)
        keep = rng.choice(rest.size, size=max_nodes - 2, replace=False)
        rest = np.sort(rest[keep])
    node_map = np.concatenate([np.array([u, v], dtype=np.int64), rest])

    n = node_map.shape[0]
    local_of = {int(gl): i for i, gl in enumerate(node_map)}
    adj = np.zeros((n, n), dtype=np.float64)
    for i, gl in enumerate(node_map):
        for x in g.neighbors(int(gl)):
            j = local_of.get(int(x))
            if j is not None:
                adj[i, j] = 1.0
    if exclude_target_edge:
        adj[0, 1] = 0.0
        adj[1, 0] = 0.0

    labels = np.zeros(n, dtype=np.float64)
    labels[0] = labels[1] = 1.0
    return LabeledSubgraph(
        node_map=node_map,
        local_adjacency=adj,
        local_features=g.features[node_map],
        labels=labels,
        target=(0, 1),
        hop_k=k,
        link_label=int(e.label),
    )
