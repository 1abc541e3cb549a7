"""Graph representation, link heuristics, enclosing-subgraph extraction, batching.

Graphs are undirected, unweighted, self-loop free, and immutable after
construction. The adjacency lives in a small CSR structure with sorted rows;
every sampling operation draws from it.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .rng import stream_rng

UNREACHABLE = math.inf

POSITIVE = 1
NEGATIVE = 0


@dataclass(frozen=True)
class Csr:
    """Compressed sparse rows; data defaults to ones for plain adjacencies."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple
    symmetric: bool = False

    @staticmethod
    def from_coo(n, rows, cols, vals=None, symmetric=False):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if vals is None:
            vals = np.ones(rows.shape[0], dtype=np.float64)
        else:
            vals = np.asarray(vals, dtype=np.float64)
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return Csr(indptr, cols, vals, (n, n), symmetric=symmetric)

    @staticmethod
    def from_dense(a, symmetric=False):
        a = np.asarray(a, dtype=np.float64)
        rows, cols = np.nonzero(a)
        return Csr.from_coo(a.shape[0], rows, cols, a[rows, cols], symmetric=symmetric)

    def row(self, i):
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def degrees(self):
        return np.diff(self.indptr)

    def row_ids(self):
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def matmul_dense(self, x):
        """Each output row sums its entries' products left to right from 0.0.

        Rows are visited in falling-degree order, so the rows that still have
        a k-th entry are a prefix and pass k adds all of them in one step.
        """
        x = np.asarray(x, dtype=np.float64)
        n = self.shape[0]
        out = np.zeros((n, x.shape[1]), dtype=np.float64)
        if not self.indices.size:
            return out
        prod = self.data[:, None] * x[self.indices]
        deg = np.diff(self.indptr)
        order = np.argsort(-deg, kind="stable")
        starts = self.indptr[order]
        live = n - np.searchsorted(deg[order][::-1], np.arange(deg.max()), side="right")
        acc = np.zeros_like(out)
        for k, rows in enumerate(live.tolist()):
            acc[:rows] += prod[starts[:rows] + k]
        out[order] = acc
        return out

    def transpose(self):
        if self.symmetric:
            return self
        return Csr.from_coo(self.shape[0], self.indices, self.row_ids(), self.data)

    def to_dense(self):
        out = np.zeros(self.shape, dtype=np.float64)
        if self.indices.size:
            out[self.row_ids(), self.indices] = self.data
        return out


@dataclass(frozen=True)
class Edge:
    u: int
    v: int
    label: int = POSITIVE

    def __post_init__(self):
        if self.u == self.v:
            raise InputError(f"edge endpoints must differ, got ({self.u}, {self.v})")


@dataclass(frozen=True)
class Graph:
    """Immutable node-feature matrix plus symmetric CSR adjacency."""

    num_nodes: int
    features: np.ndarray
    adjacency: Csr
    edge_count: int

    @staticmethod
    def from_edge_array(num_nodes, edges, features):
        """Build from an (m, 2) array of undirected edges, u != v, unique pairs."""
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        features = np.asarray(features, dtype=np.float64)
        if features.shape[0] != num_nodes:
            raise InputError(
                f"feature rows ({features.shape[0]}) != num_nodes ({num_nodes})"
            )
        if edges.size:
            if edges.min() < 0 or edges.max() >= num_nodes:
                raise InputError("edge endpoint out of range")
            if np.any(edges[:, 0] == edges[:, 1]):
                raise InputError("self-loops are not allowed")
            lo = np.minimum(edges[:, 0], edges[:, 1])
            hi = np.maximum(edges[:, 0], edges[:, 1])
            keys = lo * num_nodes + hi
            if np.unique(keys).size != keys.size:
                raise InputError("duplicate edges are not allowed")
            rows = np.concatenate([lo, hi])
            cols = np.concatenate([hi, lo])
        else:
            rows = cols = np.empty(0, dtype=np.int64)
        adj = Csr.from_coo(num_nodes, rows, cols, symmetric=True)
        return Graph(num_nodes, features, adj, int(edges.shape[0]))

    def _check_node(self, u):
        if not (0 <= u < self.num_nodes):
            raise InputError(f"node id {u} out of range [0, {self.num_nodes})")

    def degrees(self):
        return self.adjacency.degrees()

    def neighbors(self, u):
        self._check_node(u)
        return self.adjacency.row(u)

    def has_edge(self, u, v):
        self._check_node(u)
        self._check_node(v)
        row = self.adjacency.row(u)
        i = np.searchsorted(row, v)
        return bool(i < row.size and row[i] == v)

    def edges(self):
        """(m, 2) array with u < v, lexicographically sorted."""
        rows = self.adjacency.row_ids()
        mask = rows < self.adjacency.indices
        return np.stack([rows[mask], self.adjacency.indices[mask]], axis=1)

    def non_edge_count(self):
        return self.num_nodes * (self.num_nodes - 1) // 2 - self.edge_count

    def subgraph_on(self, edges):
        """Same nodes and features, adjacency restricted to the given edges."""
        return Graph.from_edge_array(self.num_nodes, edges, self.features)


# ---------------------------------------------------------------------------
# Link heuristics


def _row_entries(g: Graph, nodes):
    """Positions in the CSR index array of every entry of the given rows, in
    row order, plus each row's entry count: one gather, no per-row loop."""
    indptr = g.adjacency.indptr
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(starts - (ends - counts), counts), counts


def common_neighbors(g: Graph, u: int, v: int) -> int:
    g._check_node(u)
    g._check_node(v)
    shared = np.intersect1d(g.neighbors(u), g.neighbors(v), assume_unique=True)
    return int(np.sum((shared != u) & (shared != v)))


def shortest_path_length(g: Graph, u: int, v: int, exclude_edge: bool = False):
    """BFS hop count; UNREACHABLE when disconnected.

    Level-synchronous over boolean node masks: v is at depth d + 1 exactly
    when one of v's neighbours is in the depth-d frontier, so the level that
    contains v is never built. With exclude_edge set and (u, v) present, v
    is dropped from u's first level, which removes that one edge and nothing
    else (v never enters a frontier), so existing edges do not trivially
    score 1.
    """
    g._check_node(u)
    g._check_node(v)
    if u == v:
        return 0
    indptr, indices = g.adjacency.indptr, g.adjacency.indices
    level = indices[indptr[u] : indptr[u + 1]]
    if np.any(level == v):
        if not exclude_edge:
            return 1
        level = level[level != v]
    target_nbrs = indices[indptr[v] : indptr[v + 1]]
    frontier = np.zeros(g.num_nodes, dtype=bool)
    frontier[level] = True
    seen = frontier.copy()
    seen[u] = True
    d = 1
    while level.size:
        if frontier[target_nbrs].any():
            return d + 1
        frontier = np.zeros(g.num_nodes, dtype=bool)
        frontier[indices[_row_entries(g, level)[0]]] = True
        frontier &= ~seen
        seen |= frontier
        level = np.flatnonzero(frontier)
        d += 1
    return UNREACHABLE


def preferential_attachment(g: Graph, u: int, v: int) -> int:
    g._check_node(u)
    g._check_node(v)
    deg = g.degrees()
    return int(deg[u]) * int(deg[v])


# ---------------------------------------------------------------------------
# Enclosing subgraphs


@dataclass(frozen=True)
class LabeledSubgraph:
    """k-hop neighborhood union around a target link, endpoints marked 1."""

    node_map: np.ndarray
    local_adjacency: np.ndarray
    local_features: np.ndarray
    labels: np.ndarray
    target: tuple
    hop_k: int
    link_label: int = POSITIVE

    @property
    def num_nodes(self):
        return self.node_map.shape[0]


def _extract(g: Graph, links, k, max_nodes, exclude, rng_of) -> list:
    """One labeled subgraph per link, all links in one pass.

    Every link's k-hop ball is a run of sorted `link * n + node` keys, grown
    one level at a time for all links together, so a link listed twice gets
    two blocks. exclude[i] drops link i's target edge; rng_of(i) is called
    only for a link whose ball exceeds max_nodes and gives its subsampling rng.
    """
    if k < 1:
        raise InputError(f"hop count must be >= 1, got {k}")
    if max_nodes < 2:
        raise InputError(f"max_nodes must be >= 2, got {max_nodes}")
    n = g.num_nodes
    ends = np.array([(int(e.u), int(e.v)) for e in links], dtype=np.int64).reshape(-1, 2)
    bad = ends[(ends < 0) | (ends >= n)]
    if bad.size:
        g._check_node(int(bad[0]))
    num = ends.shape[0]
    indices = g.adjacency.indices

    end_keys = np.sort((np.arange(num, dtype=np.int64)[:, None] * n + ends).ravel())
    ball = level = end_keys
    for _ in range(k):
        pos, counts = _row_entries(g, level % n)
        level = np.setdiff1d(np.repeat(level - level % n, counts) + indices[pos], ball)
        ball = np.union1d(ball, level)
    rest = np.setdiff1d(ball, end_keys, assume_unique=True)
    rest_sizes = np.bincount(rest // n, minlength=num)
    over = np.flatnonzero(rest_sizes > max_nodes - 2)
    if over.size:
        keep = np.ones(rest.size, dtype=bool)
        starts = np.cumsum(rest_sizes) - rest_sizes
        for i in over.tolist():
            start, size = int(starts[i]), int(rest_sizes[i])
            picked = rng_of(i).choice(size, size=max_nodes - 2, replace=False)
            keep[start : start + size] = False
            keep[start + picked] = True
        rest = rest[keep]
        rest_sizes[over] = max_nodes - 2

    # Flat member list: each link's block is u, v, then its rest ascending.
    sizes = rest_sizes + 2
    offsets = np.cumsum(sizes) - sizes
    owner = np.repeat(np.arange(num), sizes)
    local = np.arange(owner.size) - offsets[owner]
    nodes = np.empty(owner.size, dtype=np.int64)
    nodes[offsets] = ends[:, 0]
    nodes[offsets + 1] = ends[:, 1]
    nodes[local >= 2] = rest % n

    # Induced edges: neighbour keys of every member looked up among members.
    members = owner * n + nodes
    order = np.argsort(members)
    members = members[order]
    pos, counts = _row_entries(g, nodes)
    row = np.repeat(np.arange(nodes.size), counts)
    nbr = owner[row] * n + indices[pos]
    at = np.minimum(np.searchsorted(members, nbr), members.size - 1)
    hit = members[at] == nbr
    row, col = row[hit], order[at[hit]]
    cells = sizes * sizes
    cell_offsets = np.cumsum(cells) - cells
    blk = owner[row]
    adj = np.zeros(int(cells.sum()), dtype=np.float64)
    adj[cell_offsets[blk] + local[row] * sizes[blk] + local[col]] = 1.0
    exclude = np.asarray(exclude, dtype=bool)
    adj[cell_offsets[exclude] + 1] = 0.0
    adj[cell_offsets[exclude] + sizes[exclude]] = 0.0

    feats = g.features[nodes]
    labels = (local < 2).astype(np.float64)
    out = []
    for e, a, m, c in zip(links, offsets.tolist(), sizes.tolist(), cell_offsets.tolist()):
        out.append(
            LabeledSubgraph(
                node_map=nodes[a : a + m],
                local_adjacency=adj[c : c + m * m].reshape(m, m),
                local_features=feats[a : a + m],
                labels=labels[a : a + m],
                target=(0, 1),
                hop_k=k,
                link_label=int(e.label),
            )
        )
    return out


def extract_enclosing_subgraph(
    g: Graph,
    e: Edge,
    k: int = 1,
    max_nodes: int = 1000,
    rng: np.random.Generator = None,
    exclude_target_edge: bool = True,
) -> LabeledSubgraph:
    """Union of the k-hop balls around e's endpoints with 0/1 endpoint labels.

    Node order is deterministic: endpoints first, remaining ids ascending.
    When the union exceeds max_nodes the surplus is dropped by uniform
    subsampling from the seeded rng; the endpoints are never dropped.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    return _extract(g, [e], k, max_nodes, [exclude_target_edge], lambda i: rng)[0]


def extract_for_links(
    g: Graph,
    links,
    k: int = 1,
    max_nodes: int = 1000,
    seed: int = 0,
):
    """extract_enclosing_subgraph for every link, in list order, in one pass.

    Positive links drop their target edge, negatives keep it. A link whose
    ball exceeds max_nodes subsamples with its own stream
    `extract.{u}.{v}.{label}`, so each subgraph is independent of the list's
    order and of the other links in it.
    """
    return _extract(
        g, links, k, max_nodes,
        [e.label == POSITIVE for e in links],
        lambda i: stream_rng(seed, f"extract.{links[i].u}.{links[i].v}.{links[i].label}"),
    )


def _once_per_batch(method):
    """Compute a batch method's result on the first call and return that
    same object on later calls, so callers must not write to it."""
    key = "_" + method.__name__

    @functools.wraps(method)
    def cached(self):
        if key not in self.__dict__:
            # The dataclass is frozen; like functools.cached_property, store
            # straight into the instance dict.
            self.__dict__[key] = method(self)
        return self.__dict__[key]

    return cached


@dataclass(frozen=True)
class LabeledSubgraphBatch:
    """Subgraphs stacked block-diagonally; no adjacency between blocks."""

    blocks: tuple
    block_sizes: np.ndarray
    offsets: np.ndarray
    batch_labels: np.ndarray

    @property
    def total_nodes(self):
        return int(self.block_sizes.sum())

    @_once_per_batch
    def stacked_features(self):
        return np.concatenate([b.local_features for b in self.blocks], axis=0)

    @_once_per_batch
    def stacked_labels(self):
        return np.concatenate([b.labels for b in self.blocks])

    def block_adjacencies(self):
        return [b.local_adjacency for b in self.blocks]

    @_once_per_batch
    def block_diag_csr(self) -> Csr:
        rows, cols = [], []
        for off, b in zip(self.offsets, self.blocks):
            r, c = np.nonzero(b.local_adjacency)
            rows.append(r + off)
            cols.append(c + off)
        rows = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
        cols = np.concatenate(cols) if cols else np.empty(0, dtype=np.int64)
        return Csr.from_coo(self.total_nodes, rows, cols, symmetric=True)

    def to_dense_adjacency(self):
        n = self.total_nodes
        out = np.zeros((n, n), dtype=np.float64)
        for off, b in zip(self.offsets, self.blocks):
            m = b.num_nodes
            out[off : off + m, off : off + m] = b.local_adjacency
        return out


def make_batch(subgraphs) -> LabeledSubgraphBatch:
    if not subgraphs:
        raise InputError("cannot batch an empty subgraph list")
    sizes = np.array([s.num_nodes for s in subgraphs], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int64)
    labels = np.array([s.link_label for s in subgraphs], dtype=np.float64)
    return LabeledSubgraphBatch(
        blocks=tuple(subgraphs),
        block_sizes=sizes,
        offsets=offsets,
        batch_labels=labels,
    )


# ---------------------------------------------------------------------------
# File ingestion


def load_edge_list(path):
    """Parse "u<TAB>v" lines, 0-based ids; rejects self-loops and duplicates
    with their line numbers."""
    edges = []
    seen = {}
    bad = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise InputError(f"{path}:{lineno}: expected 'u<TAB>v', got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise InputError(f"{path}:{lineno}: non-integer node id in {line!r}")
            if u < 0 or v < 0:
                raise InputError(f"{path}:{lineno}: negative node id")
            if u == v:
                bad.append((lineno, "self-loop"))
                continue
            key = (min(u, v), max(u, v))
            if key in seen:
                bad.append((lineno, f"duplicate of line {seen[key]}"))
                continue
            seen[key] = lineno
            edges.append(key)
    if bad:
        detail = "; ".join(f"line {ln}: {why}" for ln, why in bad[:20])
        raise InputError(f"{path}: rejected {len(bad)} line(s): {detail}")
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


def save_edge_list(path, edges):
    with open(path, "w", encoding="utf-8") as fh:
        for u, v in np.asarray(edges, dtype=np.int64):
            fh.write(f"{u}\t{v}\n")


def load_features_csv(path):
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                vals = [float(x) for x in line.split(",")]
            except ValueError:
                raise InputError(f"{path}:{lineno}: non-numeric value in {line!r}")
            if width is None:
                width = len(vals)
            elif len(vals) != width:
                raise InputError(f"{path}:{lineno}: expected {width} columns")
            rows.append(vals)
    if not rows:
        raise InputError(f"{path}: empty feature file")
    return np.array(rows, dtype=np.float64)


def save_features_csv(path, x):
    with open(path, "w", encoding="utf-8") as fh:
        for row in np.asarray(x, dtype=np.float64):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def build_features(mode: str, num_nodes: int, degrees=None):
    """Synthetic feature modes: "degree-onehot:<D>" or "constant:<d>"."""
    if mode.startswith("degree-onehot:"):
        width = int(mode.split(":", 1)[1])
        if width < 1:
            raise InputError(f"degree-onehot width must be >= 1, got {width}")
        if degrees is None:
            raise InputError("degree-onehot features need node degrees")
        x = np.zeros((num_nodes, width), dtype=np.float64)
        x[np.arange(num_nodes), np.minimum(degrees, width - 1)] = 1.0
        return x
    if mode.startswith("constant:"):
        width = int(mode.split(":", 1)[1])
        if width < 1:
            raise InputError(f"constant width must be >= 1, got {width}")
        return np.ones((num_nodes, width), dtype=np.float64)
    raise InputError(f"unknown feature mode {mode!r}")


def load_graph(edge_path, feature_path) -> Graph:
    """Graph from an edge-list file plus a feature CSV; one node per CSV row."""
    edges = load_edge_list(edge_path)
    inferred = int(edges.max()) + 1 if edges.size else 0
    feats = load_features_csv(feature_path)
    n = feats.shape[0]
    if n < inferred:
        raise InputError(f"feature rows ({n}) fewer than edge ids require ({inferred})")
    return Graph.from_edge_array(n, edges, feats)
