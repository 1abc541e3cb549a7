"""Per-entry CSR propagation, set-and-dict subgraph extraction and per-block
batch adjacency, kept as oracles.

`graphs.Csr.matmul_dense` sums each row's entries in falling-degree passes
planned once per `Csr`, and finishes a row left alone in one accumulate,
`graphs.extract_for_links` extracts a whole link list at once over sorted
`link * n + node` keys (`extract_enclosing_subgraph` is its one-link case),
and `LabeledSubgraphBatch.block_diag_csr` takes one `flatnonzero` over the
concatenated blocks. These are the implementations they replaced: one
`np.add.at` scatter; one link at a time with per-neighbour Python sets plus
a dict from global to local ids; one `np.nonzero` per block and a sort in
`Csr.from_coo`. `from_coo` orders entries by a stable argsort of
`row * n + column` and counts rows with one `np.bincount`, and
`normalize_adjacency` sums degrees with a weighted `np.bincount`; the lexsort
and `np.add.at` scatters they replaced are kept here too. Every result must
match these byte for byte.

The dense and per-row views of a `Csr` that only tests read live here too.
"""

import numpy as np

from counterlink.errors import InputError
from counterlink.graphs import Csr, Edge, Graph, LabeledSubgraph


def csr_from_dense(a) -> Csr:
    a = np.asarray(a, dtype=np.float64)
    rows, cols = np.nonzero(a)
    return Csr.from_coo(a.shape[0], rows, cols, a[rows, cols])


def csr_to_dense(csr) -> np.ndarray:
    out = np.zeros(csr.shape, dtype=np.float64)
    if csr.indices.size:
        out[csr.row_ids(), csr.indices] = csr.data
    return out


def csr_row(csr, i) -> np.ndarray:
    return csr.indices[csr.indptr[i] : csr.indptr[i + 1]]


def neighbors(g: Graph, u) -> np.ndarray:
    g._check_node(u)
    return csr_row(g.adjacency, u)


def from_coo_reference(n, rows, cols, vals) -> Csr:
    """Entries ordered by a lexsort on (row, column), row pointers counted by
    an np.add.at scatter."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    return Csr(indptr, cols, vals, (n, n))


def normalize_adjacency_reference(a: Csr) -> Csr:
    """D^-1/2 (A + I) D^-1/2 with the degrees summed by an np.add.at scatter."""
    n = a.shape[0]
    rows = np.concatenate([a.row_ids(), np.arange(n)])
    cols = np.concatenate([a.indices, np.arange(n)])
    vals = np.concatenate([a.data, np.ones(n)])
    deg = np.zeros(n)
    np.add.at(deg, rows, vals)
    dinv = 1.0 / np.sqrt(deg)
    return from_coo_reference(n, rows, cols, dinv[rows] * vals * dinv[cols])


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
            for x in neighbors(g, w):
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
        for x in neighbors(g, int(gl)):
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
        graph_features=g.features,
        labels=labels,
        link_label=int(e.label),
    )


def block_diag_csr_reference(batch) -> Csr:
    rows, cols = [], []
    for off, b in zip(batch.offsets, batch.blocks):
        r, c = np.nonzero(b.local_adjacency)
        rows.append(r + off)
        cols.append(c + off)
    rows = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
    cols = np.concatenate(cols) if cols else np.empty(0, dtype=np.int64)
    return Csr.from_coo(batch.total_nodes, rows, cols)
