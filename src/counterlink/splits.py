"""Structural-shift dataset splits by thresholding link heuristics.

A split buckets every edge of the source graph by one heuristic value (CN,
SP, or PA, computed once on the full graph; SP uses the exclude-edge
convention so existing edges never trivially score 1). The two thresholds
are treated as sorted bucket boundaries (lo, hi):

    forward   train [0, lo)   valid [lo, hi)   test [hi, inf)
    backward  train [hi, inf) valid [lo, hi)   test [0, lo)

so values grow from train to test in forward splits and shrink in backward
ones regardless of the order the two parameters are written in. Unreachable
SP values sort above every threshold.
"""

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from . import bruteforce
from .errors import DegenerateSplitError, InputError, ValidationError
from .graphs import Graph, common_neighbors, preferential_attachment, shortest_path_length
from .rng import stream_rng

HEURISTICS = ("CN", "SP", "PA")
DIRECTIONS = ("forward", "backward")
BUCKETS = ("train", "valid", "test")


@dataclass(frozen=True)
class SplitSpec:
    heuristic: str
    direction: str
    t1: float
    t2: float
    neg_ratio: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.heuristic not in HEURISTICS:
            raise InputError(f"heuristic must be one of {HEURISTICS}, got {self.heuristic!r}")
        if self.direction not in DIRECTIONS:
            raise InputError(f"direction must be one of {DIRECTIONS}, got {self.direction!r}")
        if self.t1 < 0 or self.t2 < 0:
            raise InputError("thresholds must be non-negative")
        if self.heuristic in ("CN", "SP") and not (
            float(self.t1).is_integer() and float(self.t2).is_integer()
        ):
            raise InputError(f"{self.heuristic} thresholds must be integers")
        if self.t1 == self.t2:
            raise InputError("thresholds must differ")
        if self.neg_ratio < 1:
            raise InputError("neg_ratio must be >= 1")

    def bucket_ranges(self):
        """Resolved half-open value range per bucket, surfacing the sorted
        interpretation of the two parameters."""
        lo, hi = sorted((float(self.t1), float(self.t2)))
        if self.direction == "forward":
            return {"train": (0.0, lo), "valid": (lo, hi), "test": (hi, math.inf)}
        return {"train": (hi, math.inf), "valid": (lo, hi), "test": (0.0, lo)}


@dataclass
class DatasetSplit:
    train_pos: np.ndarray
    valid_pos: np.ndarray
    test_pos: np.ndarray
    train_neg: np.ndarray
    valid_neg: np.ndarray
    test_neg: np.ndarray
    observed_graph: Graph
    spec: SplitSpec

    def pos(self, bucket):
        return getattr(self, f"{bucket}_pos")

    def neg(self, bucket):
        return getattr(self, f"{bucket}_neg")


def heuristic_value(g: Graph, u: int, v: int, name: str):
    """Production-path heuristic with the split's exclude-edge SP convention."""
    if name == "CN":
        return common_neighbors(g, u, v)
    if name == "SP":
        return shortest_path_length(g, u, v, exclude_edge=True)
    if name == "PA":
        return preferential_attachment(g, u, v)
    raise InputError(f"unknown heuristic {name!r}")


def _bucket_of(value, ranges):
    for bucket in BUCKETS:
        lo, hi = ranges[bucket]
        if lo <= value < hi or (value == math.inf and hi == math.inf):
            return bucket
    raise AssertionError(f"value {value} fell outside all buckets")


def _non_edges_at(g: Graph, ranks):
    """The non-edges (u, v), u < v, at the given sorted ranks of row-major
    upper-triangle order, in O(n + m + len(ranks)) memory."""
    n = g.num_nodes
    e = g.edges()
    upper_deg = np.bincount(e[:, 0], minlength=n)
    per_row = (n - 1 - np.arange(n)) - upper_deg
    row_end = np.cumsum(per_row)
    u = np.searchsorted(row_end, ranks, side="right")
    k = ranks - (row_end[u] - per_row[u])
    # Row u's upper neighbour b_i has s_i = b_i - u - 1 - i non-edges before
    # it, and lies left of the k-th non-edge exactly when s_i <= k. Keys
    # row * n + s_i are sorted, so one searchsorted counts those neighbours.
    first = np.cumsum(upper_deg) - upper_deg
    s = e[:, 1] - e[:, 0] - 1 - (np.arange(e.shape[0]) - first[e[:, 0]])
    left = np.searchsorted(e[:, 0] * n + s, u * n + k, side="right") - first[u]
    return np.stack([u, u + 1 + k + left], axis=1)


def sample_negatives(g: Graph, count: int, seed=None, rng=None):
    """Uniform distinct non-edges (u < v) of g, deterministic per seed.

    Sparse graphs are rejection-sampled from (u, v) draws of rng.integers(0, n)
    in rounds: each round draws 2 * need values at once and reads them as
    pairs in draw order, dropping self-pairs, edges, pairs already chosen and
    repeats within the round (the first is kept). Array draws give the values
    of one-at-a-time draws, so the result equals drawing pair by pair and
    stopping at the count-th survivor. Only rng's end position differs, since
    the last round over-draws; no caller reads rng afterwards.
    """
    if count < 0:
        raise InputError("negative sample count must be >= 0")
    pool = g.non_edge_count()
    if count > pool:
        raise InputError(f"requested {count} negatives but only {pool} non-edges exist")
    if rng is None:
        rng = stream_rng(0 if seed is None else seed, "negatives")
    if count == 0:
        return np.empty((0, 2), dtype=np.int64)
    n = g.num_nodes
    # Dense graphs: pick ranks among all non-edges; sparse: rejection sample.
    if count * 3 > pool:
        pick = rng.choice(pool, size=count, replace=False)
        return _non_edges_at(g, np.sort(pick))
    e = g.edges()
    edge_keys = e[:, 0] * n + e[:, 1]
    chosen = np.empty(0, dtype=np.int64)
    while chosen.size < count:
        need = count - chosen.size
        u, v = rng.integers(0, n, size=2 * need).reshape(-1, 2).T
        keys = np.minimum(u, v) * n + np.maximum(u, v)
        keys = keys[(u != v) & ~np.isin(keys, edge_keys) & ~np.isin(keys, chosen)]
        _, first = np.unique(keys, return_index=True)
        chosen = np.concatenate([chosen, keys[np.sort(first)][:need]])
    return np.stack([chosen // n, chosen % n], axis=1)


def generate_split(g: Graph, spec: SplitSpec) -> DatasetSplit:
    """Bucket every edge by its heuristic value; sample negatives per bucket.

    Heuristics are computed on the full source graph before any edges are
    hidden. The observed graph keeps only train positives, so validation and
    test structure never enters message passing by default.
    """
    if g.edge_count < 1:
        raise InputError("cannot split a graph with no edges")
    ranges = spec.bucket_ranges()
    edges = g.edges()
    buckets = {b: [] for b in BUCKETS}
    for u, v in edges.tolist():
        val = heuristic_value(g, u, v, spec.heuristic)
        buckets[_bucket_of(val, ranges)].append((u, v))
    for b in BUCKETS:
        if not buckets[b]:
            raise DegenerateSplitError(
                f"{b} bucket received zero edges for {spec.heuristic} "
                f"{spec.direction} split with ranges {ranges[b]}"
            )
    pos = {b: np.array(buckets[b], dtype=np.int64) for b in BUCKETS}
    counts = {b: spec.neg_ratio * pos[b].shape[0] for b in BUCKETS}
    rng = stream_rng(spec.seed, "negatives")
    allneg = sample_negatives(g, sum(counts.values()), rng=rng)
    neg = {}
    at = 0
    for b in BUCKETS:
        neg[b] = allneg[at : at + counts[b]]
        at += counts[b]
    observed = g.subgraph_on(pos["train"])
    return DatasetSplit(
        train_pos=pos["train"],
        valid_pos=pos["valid"],
        test_pos=pos["test"],
        train_neg=neg["train"],
        valid_neg=neg["valid"],
        test_neg=neg["test"],
        observed_graph=observed,
        spec=spec,
    )


@dataclass
class SplitReport:
    bucket_counts: dict
    violations: list
    interpretation: str


def verify_split(g: Graph, split: DatasetSplit) -> SplitReport:
    """Recheck every bucket assignment with the set/BFS reference heuristics.

    Independent of the CSR production path by design. Raises ValidationError
    on any violated membership, on a negative that is an edge, a self-pair or
    a repeat of an earlier negative (in any bucket), and on an empty
    negative set.
    """
    spec = split.spec
    ranges = spec.bucket_ranges()
    adj = bruteforce.adjacency_sets(g.num_nodes, g.edges())
    violations = []
    counts = {}
    negative_bucket = {}
    for bucket in BUCKETS:
        edges = split.pos(bucket)
        counts[bucket] = int(edges.shape[0])
        lo, hi = ranges[bucket]
        for u, v in edges.tolist():
            val = bruteforce.heuristic_brute(
                adj, u, v, spec.heuristic, exclude_edge=spec.heuristic == "SP"
            )
            inside = lo <= val < hi or (val == math.inf and hi == math.inf)
            if not inside:
                violations.append({"bucket": bucket, "edge": [u, v], "value": float(val)})
        if split.neg(bucket).shape[0] == 0:
            raise ValidationError(f"{bucket} negative set is empty")
        for u, v in split.neg(bucket).tolist():
            if u == v:
                raise ValidationError(f"{bucket}_neg holds the self-pair {[u, v]}")
            key = (min(u, v), max(u, v))
            if key in negative_bucket:
                raise ValidationError(
                    f"{bucket}_neg repeats the pair {[u, v]}, "
                    f"already in {negative_bucket[key]}_neg"
                )
            negative_bucket[key] = bucket
            if v in adj[u]:
                violations.append({"bucket": f"{bucket}_neg", "edge": [u, v], "value": None})
    report = SplitReport(
        bucket_counts=counts,
        violations=violations,
        interpretation=(
            f"{spec.heuristic} {spec.direction} thresholds ({spec.t1}, {spec.t2}) "
            f"resolved as sorted boundaries lo={min(spec.t1, spec.t2)}, "
            f"hi={max(spec.t1, spec.t2)}"
        ),
    )
    if violations:
        shown = violations[:10]
        raise ValidationError(
            f"{len(violations)} bucket violation(s), first {len(shown)}: {shown}"
        )
    return report


# ---------------------------------------------------------------------------
# Persistence


def save_split(split: DatasetSplit, path):
    doc = {
        "spec": asdict(split.spec),
        "seed": split.spec.seed,
        "bucket_ranges": {
            b: [r[0], "inf" if r[1] == math.inf else r[1]]
            for b, r in split.spec.bucket_ranges().items()
        },
        "edges": {
            f"{b}_{kind}": getattr(split, f"{b}_{kind}").tolist()
            for b in BUCKETS
            for kind in ("pos", "neg")
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))


def _edge_array(rows, num_nodes, key):
    """(m, 2) int64 array from a JSON list of [u, v] node-id pairs.

    Raises ValueError unless every entry is an integer pair of ids in
    [0, num_nodes); floats are rejected, not truncated.
    """
    arr = np.array(rows)
    if arr.size == 0 and arr.ndim == 1:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.dtype.kind not in "iu":
        raise ValueError(f"{key} must be a list of [u, v] integer pairs")
    if arr.min() < 0 or arr.max() >= num_nodes:
        raise ValueError(f"{key} holds a node id outside [0, {num_nodes})")
    return arr.astype(np.int64)


def load_split(path, g: Graph) -> DatasetSplit:
    """Load a persisted split and revalidate it against the source graph."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:
        raise ValidationError(f"{path}: not valid split JSON: {exc}")
    try:
        spec = SplitSpec(**doc["spec"])
        arrays = {
            key: _edge_array(doc["edges"][key], g.num_nodes, key)
            for key in (f"{b}_{kind}" for b in BUCKETS for kind in ("pos", "neg"))
        }
    except KeyError as exc:
        raise ValidationError(f"{path}: missing field {exc}")
    except InputError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: malformed split: {exc}")
    split = DatasetSplit(
        observed_graph=g.subgraph_on(arrays["train_pos"]),
        spec=spec,
        **arrays,
    )
    pos_keys = {tuple(e) for b in BUCKETS for e in split.pos(b).tolist()}
    total = sum(split.pos(b).shape[0] for b in BUCKETS)
    if len(pos_keys) != total:
        raise ValidationError(f"{path}: positive buckets overlap")
    verify_split(g, split)
    return split
