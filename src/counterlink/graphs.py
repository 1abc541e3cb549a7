"""Graph representation, link heuristics, enclosing-subgraph extraction, batching.

Graphs are undirected, unweighted, self-loop free, and immutable after
construction. The adjacency lives in a small CSR structure with sorted rows;
every sampling operation draws from it. SP skips each pair's own edge.

Enclosing subgraphs hold node indices, not node features: each one keeps its
node_map and a reference to the graph's one feature matrix, and a batch
gathers its blocks' rows from that matrix once (the SEAL / PyTorch Geometric
layout). Extraction memory therefore grows with the subgraphs' adjacency,
not with subgraph size times feature width.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, require_extraction
from .rng import stream_rng

UNREACHABLE = math.inf

POSITIVE = 1
NEGATIVE = 0


@dataclass(frozen=True)
class Csr:
    """Compressed sparse rows of a symmetric matrix (an adjacency or its
    normalization), so it is its own transpose; data defaults to ones."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple

    @staticmethod
    def from_coo(n, rows, cols, vals=None):
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
        return Csr(indptr, cols, vals, (n, n))

    def degrees(self):
        return np.diff(self.indptr)

    def row_ids(self):
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    @functools.cached_property
    def plan(self):
        """matmul_dense's schedule, built on first use and kept: every row's
        position in falling-degree order (rank), how many rows are live in
        each pass (those with a k-th entry, a prefix of that order), where
        each pass starts among the entries, how many passes have two or more
        live rows, and every entry's column and value in pass-major order."""
        deg = np.diff(self.indptr)
        order = np.argsort(-deg, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        rows = self.row_ids()
        k = np.arange(self.indices.size) - self.indptr[rows]
        entries = np.lexsort((rank[rows], k))
        live = np.bincount(k)
        bounds = np.concatenate([[0], np.cumsum(live)])
        return (rank, live.tolist(), bounds.tolist(), int(np.count_nonzero(live > 1)),
                self.indices[entries], self.data[entries])

    def __matmul__(self, x):
        return self.matmul_dense(x)

    def matmul_dense(self, x):
        """Each output row sums its entries' products left to right from 0.0.

        Rows are visited in falling-degree order (self.plan), so the rows that
        still have a k-th entry are a prefix and pass k adds all of them in
        one step. Once a single row is left, its remaining entries are added
        in one sequential accumulate instead of one pass each.
        """
        x = np.asarray(x, dtype=np.float64)
        n = self.shape[0]
        if not self.indices.size:
            return np.zeros((n, x.shape[1]), dtype=np.float64)
        rank, live, bounds, shared, cols, vals = self.plan
        prod = np.take(x, cols, axis=0)
        prod *= vals[:, None]
        acc = np.zeros((n, x.shape[1]), dtype=np.float64)
        for k in range(shared):
            acc[: live[k]] += prod[bounds[k] : bounds[k + 1]]
        if shared < len(live):
            # add.reduce would sum a single column pairwise; accumulate keeps
            # the left-to-right order for every width.
            tail = np.concatenate([acc[:1], prod[bounds[shared] :]])
            acc[0] = np.add.accumulate(tail, axis=0)[-1]
        return np.take(acc, rank, axis=0)


def normalize_adjacency(a: Csr) -> Csr:
    """D^-1/2 (A + I) D^-1/2 over CSR; self-loops cover isolated nodes."""
    n = a.shape[0]
    rows = np.concatenate([a.row_ids(), np.arange(n)])
    cols = np.concatenate([a.indices, np.arange(n)])
    vals = np.concatenate([a.data, np.ones(n)])
    deg = np.zeros(n)
    np.add.at(deg, rows, vals)
    dinv = 1.0 / np.sqrt(deg)
    return Csr.from_coo(n, rows, cols, dinv[rows] * vals * dinv[cols])


def pair_keys(pairs, n):
    """Each row (u, v) of an (m, 2) array of ids below n as the key
    min * n + max, so reversed endpoints name the same pair."""
    return np.minimum(pairs[:, 0], pairs[:, 1]) * n + np.maximum(pairs[:, 0], pairs[:, 1])


def first_index(keys):
    """Position of the first occurrence of each key; a later occurrence is a repeat."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first[inverse]


def sorted_lookup(sorted_keys, keys):
    """Each key's searchsorted position in the ascending sorted_keys, and whether it is there."""
    at = np.searchsorted(sorted_keys, keys)
    found = at < sorted_keys.size
    found[found] = sorted_keys[at[found]] == keys[found]
    return at, found


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
        if edges.size and (edges.min() < 0 or edges.max() >= num_nodes):
            raise InputError("edge endpoint out of range")
        if np.any(edges[:, 0] == edges[:, 1]):
            raise InputError("self-loops are not allowed")
        keys = pair_keys(edges, num_nodes)
        if np.any(first_index(keys) != np.arange(keys.size)):
            raise InputError("duplicate edges are not allowed")
        adj = Csr.from_coo(num_nodes, edges.ravel(), edges[:, ::-1].ravel())
        return Graph(num_nodes, features, adj, int(edges.shape[0]))

    def _check_node(self, u):
        if not (0 <= u < self.num_nodes):
            raise InputError(f"node id {u} out of range [0, {self.num_nodes})")

    def degrees(self):
        return self.adjacency.degrees()

    def has_edge(self, u, v):
        self._check_node(u)
        self._check_node(v)
        return bool(self.is_edge(pair_keys(np.array([[u, v]]), self.num_nodes))[0])

    @functools.cached_property
    def edge_keys(self):
        """The pair key of every edge, ascending, as edges() is sorted."""
        return pair_keys(self.edges(), self.num_nodes)

    def is_edge(self, keys):
        """Whether each pair key names an edge of the graph."""
        return sorted_lookup(self.edge_keys, keys)[1]

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


# Upper bound on the cells of one heuristic work array: the pairs x nodes
# masks of a chunk of pairs, the two-hop walks of a distance-3 chunk and the
# CSR entries of one neighbour gather, so a large graph or a hub's row cannot
# blow up memory. A pair that alone needs more (a node count, or a hub's
# two-hop count, above the bound) gets a chunk of its own.
_HEURISTIC_CELLS = 1 << 18


def _spans(costs):
    """(start, stop) runs of consecutive items whose costs sum to at most
    _HEURISTIC_CELLS; an item that costs more alone gets a run of its own."""
    ends = np.cumsum(costs)
    start = 0
    while start < ends.size:
        base = int(ends[start - 1]) if start else 0
        stop = int(np.searchsorted(ends, base + _HEURISTIC_CELLS, side="right"))
        stop = max(stop, start + 1)
        yield start, stop
        start = stop


def _pairs(g: Graph, u, v):
    """The endpoints as equal-length 1-d int64 arrays; any other shape, or an
    id out of range, is an InputError."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if u.ndim != 1 or u.shape != v.shape:
        raise InputError(f"endpoints must be equal-length 1-d id arrays, "
                         f"got shapes {u.shape} and {v.shape}")
    for ends in (u, v):
        bad = ends[(ends < 0) | (ends >= g.num_nodes)]
        if bad.size:
            g._check_node(int(bad[0]))
    return u, v


def _gather(g: Graph, nodes):
    """Every neighbour of the given nodes, in row order, with the position in
    nodes of the node it belongs to: one gather, no per-row loop."""
    pos, per = _row_entries(g, nodes)
    return np.repeat(np.arange(nodes.size), per), g.adjacency.indices[pos]


def _neighbour_mask(g: Graph, nodes):
    """Flat len(nodes) x n bool mask whose row i marks the neighbours of
    nodes[i], set with one scatter."""
    n = g.num_nodes
    mask = np.zeros(nodes.size * n, dtype=bool)
    row, x = _gather(g, nodes)
    mask[row * n + x] = True
    return mask


def _shared_counts(g: Graph, u, v):
    """Common neighbours of every pair. Per chunk of at most _HEURISTIC_CELLS
    pair x node cells, the higher-degree endpoint's neighbours are marked in
    a mask, each neighbour of the other endpoint is read from it with one
    gather, and one bincount counts the hits."""
    n = g.num_nodes
    deg = g.degrees()
    swap = deg[u] > deg[v]
    low, other = np.where(swap, v, u), np.where(swap, u, v)
    counts = np.zeros(u.size, dtype=np.int64)
    for lo, hi in _spans(np.full(u.size, n)):
        mask = _neighbour_mask(g, other[lo:hi])
        row, w = _gather(g, low[lo:hi])
        counts[lo:hi] = np.bincount(row[mask[row * n + w]], minlength=hi - lo)
    return counts


def _three_hop(g: Graph, u, v):
    """Whether each pair has a walk u-w-x-v with w != v and x != u, so one
    that leaves out the edge (u, v).

    Per chunk, v's neighbours other than u are marked in a pairs x nodes
    mask, and the two-hop walks from u's neighbours other than v are read
    from it with one gather. The walks start at the endpoint with the fewer
    of them; a chunk holds at most _HEURISTIC_CELLS mask cells and as many
    walks, and a node's degree never exceeds its two-hop count.
    """
    n = g.num_nodes
    a = g.adjacency
    two_hop = np.bincount(a.row_ids(), weights=g.degrees()[a.indices], minlength=n)
    swap = two_hop[u] > two_hop[v]
    walk, mark = np.where(swap, v, u), np.where(swap, u, v)
    met = np.zeros(u.size, dtype=bool)
    for lo, hi in _spans(np.maximum(two_hop[walk], n).astype(np.int64)):
        mask = _neighbour_mask(g, mark[lo:hi])
        mask[np.arange(hi - lo) * n + walk[lo:hi]] = False
        row, w = _gather(g, walk[lo:hi])
        keep = w != mark[lo:hi][row]
        at, x = _gather(g, w[keep])
        row = row[keep][at]
        met[lo + row[mask[row * n + x]]] = True
    return met


def _expand(g: Graph, mask):
    """Per row, the neighbours of the row's marked nodes, as a mask; the CSR
    rows are gathered _HEURISTIC_CELLS entries at a time."""
    n = mask.shape[1]
    out = np.zeros(mask.size, dtype=bool)
    cells = np.flatnonzero(mask)
    node = cells % n
    row_start = cells - node
    for lo, hi in _spans(g.degrees()[node]):
        pos, per = _row_entries(g, node[lo:hi])
        out[np.repeat(row_start[lo:hi], per) + g.adjacency.indices[pos]] = True
    return out.reshape(mask.shape)


def _meet_in_middle(g: Graph, u, v, bound):
    """Distances of pairs with no path of length 3 or less, leaving out the
    edge (u, v): 4 or more, or UNREACHABLE.

    Both endpoints' BFS levels grow as boolean masks, one row per pair. Each
    step expands the smaller frontier of every pair and stops the pair when
    the new level meets the other side's frontier: the two visited sets were
    disjoint before, so the distance exceeds the two depths' sum and this
    path is a shortest one. A side whose level comes out empty has exhausted
    its component, so the pair is unreachable. No level is grown past depth
    bound - 1: a pair still open there reads UNREACHABLE, at least bound.
    """
    p = u.size
    rows = np.arange(p)
    seen = np.zeros((2, p, g.num_nodes), dtype=bool)
    seen[0, rows, u] = seen[1, rows, v] = True
    # First levels: u's without v and v's without u drop the edge (u, v)
    # and nothing else, since u and v are never expanded again.
    front = _expand(g, seen.reshape(2 * p, -1)).reshape(seen.shape) & ~seen
    front[0, rows, v] = front[1, rows, u] = False
    seen |= front
    dist = np.full(p, UNREACHABLE)
    live = rows
    depth = 2
    while live.size and depth + 1 < bound:
        side = (front[0].sum(axis=1) > front[1].sum(axis=1)).astype(np.int64)
        rows = np.arange(live.size)
        grown = _expand(g, front[side, rows]) & ~seen[side, rows]
        met = (grown & front[1 - side, rows]).any(axis=1)
        dist[live[met]] = depth + 1
        keep = ~met & grown.any(axis=1)
        live, side, grown = live[keep], side[keep], grown[keep]
        front, seen = front[:, keep], seen[:, keep]
        rows = np.arange(live.size)
        front[side, rows] = grown
        seen[side, rows] |= grown
        depth += 1
    return dist


def common_neighbors(g: Graph, u, v):
    """Common-neighbour count of each pair (u[i], v[i])."""
    u, v = _pairs(g, u, v)
    return _shared_counts(g, u, v)


def shortest_path_length(g: Graph, u, v, bound=math.inf):
    """BFS hop count of each pair (u[i], v[i]), UNREACHABLE when
    disconnected, capped at bound, as a float array: min(exact, bound).

    The edge (u, v) itself is always left out, so existing edges do not
    trivially score 1. Whole levels are settled over the list with
    neighbour masks and no search: a common neighbour (_shared_counts)
    is a path of length 2, and a walk u-w-x-v with w != v and x != u
    (_three_hop) one of length 3; neither uses the edge (u, v). Only the
    pairs still open meet in the middle (_meet_in_middle), in chunks of
    _HEURISTIC_CELLS mask cells. A level at or past bound is never
    searched: the split reads nothing beyond its upper threshold.
    """
    u, v = _pairs(g, u, v)
    dist = np.full(u.size, UNREACHABLE)
    dist[u == v] = 0.0
    far = np.flatnonzero(u != v)
    if bound > 2:
        near = _shared_counts(g, u[far], v[far]) > 0
        dist[far[near]] = 2.0
        far = far[~near]
    if bound > 3:
        near = _three_hop(g, u[far], v[far])
        dist[far[near]] = 3.0
        far = far[~near]
    if bound > 4:
        for lo, hi in _spans(np.full(far.size, g.num_nodes)):
            at = far[lo:hi]
            dist[at] = _meet_in_middle(g, u[at], v[at], bound)
    return np.minimum(dist, bound)


def preferential_attachment(g: Graph, u, v):
    """Degree product of each pair (u[i], v[i])."""
    u, v = _pairs(g, u, v)
    deg = g.degrees()
    return deg[u] * deg[v]


# ---------------------------------------------------------------------------
# Enclosing subgraphs


@dataclass(frozen=True)
class LabeledSubgraph:
    """k-hop neighborhood union around a target link, endpoints marked 1.

    Local node i is graph node node_map[i]; the link is target, always (0, 1).
    graph_features is the graph's whole feature matrix, shared by its every
    subgraph, never copied; the block's own rows are graph_features[node_map].
    """

    node_map: np.ndarray
    local_adjacency: np.ndarray
    graph_features: np.ndarray
    labels: np.ndarray
    link_label: int = POSITIVE
    target = (0, 1)

    @property
    def num_nodes(self):
        return self.node_map.shape[0]


_LOOKUP_LINKS = 256


def _extract(g: Graph, links, k, max_nodes, exclude, rng_of) -> list:
    """One labeled subgraph per link, all links in one pass.

    Every link's k-hop ball is a run of sorted `link * n + node` keys, grown
    one level at a time for all links together, so a link listed twice gets
    two blocks. exclude[i] drops link i's target edge; rng_of(i) is called
    only for a link whose ball exceeds max_nodes and gives its subsampling rng.
    """
    require_extraction(k, max_nodes)
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
        if not level.size:
            break  # no ball grew, so no later level can
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

    # Induced edges: neighbour keys of every member looked up among members,
    # _LOOKUP_LINKS links at a time, so the lookup arrays (one entry per
    # member's neighbour) stay small next to the adjacency buffer.
    members = owner * n + nodes
    order = np.argsort(members)
    members = members[order]
    cells = sizes * sizes
    cell_offsets = np.cumsum(cells) - cells
    adj = np.zeros(int(cells.sum()), dtype=np.float64)
    bounds = np.append(offsets, nodes.size)
    for lo in range(0, num, _LOOKUP_LINKS):
        span = np.arange(bounds[lo], bounds[min(lo + _LOOKUP_LINKS, num)])
        pos, counts = _row_entries(g, nodes[span])
        row = np.repeat(span, counts)
        at, hit = sorted_lookup(members, owner[row] * n + indices[pos])
        row, col = row[hit], order[at[hit]]
        blk = owner[row]
        adj[cell_offsets[blk] + local[row] * sizes[blk] + local[col]] = 1.0
    exclude = np.asarray(exclude, dtype=bool)
    adj[cell_offsets[exclude] + 1] = 0.0
    adj[cell_offsets[exclude] + sizes[exclude]] = 0.0

    labels = (local < 2).astype(np.float64)
    out = []
    for e, a, m, c in zip(links, offsets.tolist(), sizes.tolist(), cell_offsets.tolist()):
        out.append(
            LabeledSubgraph(
                node_map=nodes[a : a + m],
                local_adjacency=adj[c : c + m * m].reshape(m, m),
                graph_features=g.features,
                labels=labels[a : a + m],
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


def once_per_batch(method):
    """Compute a batch method's result, or a function's of one batch, on the
    first call and return that same object on later calls for that batch, so
    callers must not write to it."""
    key = "_" + method.__name__

    @functools.wraps(method)
    def cached(batch):
        if key not in batch.__dict__:
            # The dataclass is frozen; like functools.cached_property, store
            # straight into the instance dict.
            batch.__dict__[key] = method(batch)
        return batch.__dict__[key]

    return cached


@dataclass(frozen=True)
class SizeGroup:
    """The blocks of one node count m in a batch, in batch order: their
    indices, their node rows (block after block, so rows.reshape(k, m)) and
    their packed m x m cells (cells.reshape(k, m * m))."""

    m: int
    blocks: np.ndarray
    rows: np.ndarray
    cells: np.ndarray


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

    @once_per_batch
    def stacked_features(self):
        """Every block's feature rows, block after block: one gather from the
        blocks' shared feature matrix; block b's rows are
        offsets[b] : offsets[b] + m.

        Blocks of different feature matrices batch for their adjacency
        alone; asking such a batch for features raises InputError.
        """
        features = self.blocks[0].graph_features
        if any(b.graph_features is not features for b in self.blocks):
            raise InputError("batch blocks do not share one feature matrix")
        return features[np.concatenate([b.node_map for b in self.blocks])]

    @once_per_batch
    def stacked_labels(self):
        return np.concatenate([b.labels for b in self.blocks])

    def block_adjacencies(self):
        return [b.local_adjacency for b in self.blocks]

    @once_per_batch
    def block_diag_csr(self) -> Csr:
        """One pass over the row-major concatenated blocks: their nonzero cells
        come out sorted by (row, col), so no sort is needed."""
        sizes = self.block_sizes
        starts = np.concatenate([[0], np.cumsum(sizes * sizes)[:-1]])
        cells = np.flatnonzero(np.concatenate(
            [b.local_adjacency.ravel() for b in self.blocks]))
        block = np.searchsorted(starts, cells, side="right") - 1
        local_row, local_col = np.divmod(cells - starts[block], sizes[block])
        rows = local_row + self.offsets[block]
        indptr = np.zeros(self.total_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=self.total_nodes), out=indptr[1:])
        return Csr(indptr, local_col + self.offsets[block],
                   np.ones(cells.size, dtype=np.float64),
                   (self.total_nodes, self.total_nodes))

    @once_per_batch
    def normalized_adjacency(self) -> Csr:
        return normalize_adjacency(self.block_diag_csr())

    @once_per_batch
    def packed_layout(self):
        """(offsets, diagonal) of the blocks' m x m matrices packed into one
        vector: block b sits row-major at offsets[b] : offsets[b + 1], one
        block after another; diagonal indexes every block's diagonal cells."""
        sizes = self.block_sizes
        offsets = np.concatenate([[0], np.cumsum(sizes * sizes)])
        row = np.arange(self.total_nodes) - np.repeat(self.offsets, sizes)
        diagonal = np.repeat(offsets[:-1], sizes) + row * (np.repeat(sizes, sizes) + 1)
        return offsets, diagonal

    @once_per_batch
    def size_groups(self):
        """One SizeGroup per distinct block size, smallest first: a kernel
        that loops over these runs one stacked [k, m, ...] product per size
        instead of one product per block."""
        cell_offsets, _ = self.packed_layout()
        groups = []
        for m in np.unique(self.block_sizes).tolist():
            blocks = np.flatnonzero(self.block_sizes == m)
            rows = (self.offsets[blocks, None] + np.arange(m)).ravel()
            cells = (cell_offsets[blocks, None] + np.arange(m * m)).ravel()
            groups.append(SizeGroup(m, blocks, rows, cells))
        return tuple(groups)

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
    if sizes.min() < 2:
        raise InputError("a block must hold its link's two endpoints")
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


def _text_lines(path):
    """(line number, line) pairs of a text file; a byte that is not UTF-8 is
    an InputError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}")
    return enumerate(text.split("\n"), start=1)


def load_edge_list(path):
    """Parse "u<TAB>v" lines, 0-based ids below 2**63, into (min, max) rows;
    a malformed line raises at once, then self-loops and duplicates are
    rejected together with their line numbers."""
    parsed = []
    for lineno, line in _text_lines(path):
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
        if max(u, v) >= 1 << 63:
            raise InputError(f"{path}:{lineno}: node id too large for int64 in {line!r}")
        parsed.append((lineno, u, v))
    parsed = np.array(parsed, dtype=np.int64).reshape(-1, 3)
    linenos, rows = parsed[:, 0], np.sort(parsed[:, 1:], axis=1)
    # Keys over the ids' ranks: ids may reach 2**63 - 1 before the features fix n.
    ids, ranks = np.unique(rows, return_inverse=True)
    first = first_index(pair_keys(ranks.reshape(rows.shape), ids.size))
    loop = rows[:, 0] == rows[:, 1]
    bad = [f"line {linenos[i]}: self-loop" if loop[i]
           else f"line {linenos[i]}: duplicate of line {linenos[first[i]]}"
           for i in np.flatnonzero(loop | (first != np.arange(first.size)))]
    if bad:
        raise InputError(f"{path}: rejected {len(bad)} line(s): {'; '.join(bad[:20])}")
    return rows


def save_edge_list(path, edges):
    with open(path, "w", encoding="utf-8") as fh:
        for u, v in np.asarray(edges, dtype=np.int64):
            fh.write(f"{u}\t{v}\n")


def load_features_csv(path):
    rows = []
    width = None
    for lineno, line in _text_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            vals = [float(x) for x in line.split(",")]
        except ValueError:
            raise InputError(f"{path}:{lineno}: non-numeric value in {line!r}")
        if not all(map(math.isfinite, vals)):
            raise InputError(f"{path}:{lineno}: non-finite value in {line!r}")
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
    kind, colon, text = mode.partition(":")
    if kind not in ("degree-onehot", "constant") or not colon:
        raise InputError(f"unknown feature mode {mode!r}")
    try:
        width = int(text)
    except ValueError:
        raise InputError(f"{kind} width must be an integer, got {text!r}") from None
    if width < 1:
        raise InputError(f"{kind} width must be >= 1, got {width}")
    if kind == "constant":
        return np.ones((num_nodes, width), dtype=np.float64)
    if degrees is None:
        raise InputError("degree-onehot features need node degrees")
    x = np.zeros((num_nodes, width), dtype=np.float64)
    x[np.arange(num_nodes), np.minimum(degrees, width - 1)] = 1.0
    return x


def load_graph(edge_path, feature_path) -> Graph:
    """Graph from an edge-list file plus a feature CSV; one node per CSV row."""
    edges = load_edge_list(edge_path)
    inferred = int(edges.max()) + 1 if edges.size else 0
    feats = load_features_csv(feature_path)
    n = feats.shape[0]
    if n < inferred:
        raise InputError(f"feature rows ({n}) fewer than edge ids require ({inferred})")
    return Graph.from_edge_array(n, edges, feats)
