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

A split reads SP only to tell those ranges apart, so every value at or past
hi, inf included, lands in the same bucket: generating and verifying an SP
split search paths only up to depth hi and read min(exact, hi), which
places every edge as the exact value does. A positive found outside its
range is evaluated again without the bound, so the violation shows its
exact value.

A persisted split's pair lists are read as whole arrays: one numpy
conversion per list, and one C-level pass over the entries' types to turn
away JSON booleans, which numpy would read as 0 and 1.
"""

import itertools
import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from . import bruteforce
from .errors import DegenerateSplitError, InputError, ValidationError
from .graphs import (Graph, common_neighbors, first_index, pair_keys, preferential_attachment,
                     shortest_path_length, sorted_lookup)
from .rng import stream_rng

HEURISTICS = ("CN", "SP", "PA")
DIRECTIONS = ("forward", "backward")
BUCKETS = ("train", "valid", "test")


@dataclass(frozen=True)
class SplitSpec:
    heuristic: str = "CN"
    direction: str = "forward"
    t1: float = 1.0
    t2: float = 2.0
    neg_ratio: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.heuristic not in HEURISTICS:
            raise InputError(f"heuristic must be one of {HEURISTICS}, got {self.heuristic!r}")
        if self.direction not in DIRECTIONS:
            raise InputError(f"direction must be one of {DIRECTIONS}, got {self.direction!r}")
        if not (math.isfinite(self.t1) and math.isfinite(self.t2)):
            raise InputError(f"thresholds must be finite, got {self.t1}, {self.t2}")
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


def heuristic_value(g: Graph, u, v, name: str, bound=math.inf):
    """Production-path heuristic of each pair (u[i], v[i]), one call per edge
    list; SP leaves each pair's own edge out and is capped at bound."""
    if name == "CN":
        return common_neighbors(g, u, v)
    if name == "SP":
        return shortest_path_length(g, u, v, bound)
    if name == "PA":
        return preferential_attachment(g, u, v)
    raise InputError(f"unknown heuristic {name!r}")


def _read_bound(spec: SplitSpec):
    """How far the split reads its heuristic: SP up to the upper threshold,
    since every value at or past it, inf included, lands in the bucket that
    starts there, so min(exact, hi) places every edge as the exact value
    does; CN and PA in full."""
    return max(float(spec.t1), float(spec.t2)) if spec.heuristic == "SP" else math.inf


def _in_range(values, lo, hi):
    """Whether each value lies in the bucket range [lo, hi); unreachable SP
    values lie in the range that ends at inf."""
    return (lo <= values) & ((values < hi) | (hi == math.inf))


def _non_edges_at(g: Graph, ranks):
    """The non-edges (u, v), u < v, at the given sorted ranks of row-major
    upper-triangle order, in O(n + m + len(ranks)) memory."""
    n = g.num_nodes
    row_start = np.arange(n) * (2 * n - 1 - np.arange(n)) // 2  # the rank of (u, u + 1)
    e = g.edges()
    # Edge i, at upper-triangle rank r_i, has r_i - i non-edges before it, so
    # the k-th non-edge follows exactly the edges with r_i - i <= k.
    before = row_start[e[:, 0]] + e[:, 1] - e[:, 0] - 1 - np.arange(e.shape[0])
    at = ranks + np.searchsorted(before, ranks, side="right")
    u = np.searchsorted(row_start, at, side="right") - 1
    return np.stack([u, u + 1 + at - row_start[u]], axis=1)


def sample_negatives(g: Graph, count: int, rng):
    """Uniform distinct non-edges (u < v) of g, deterministic per rng state.

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
    if count == 0:
        return np.empty((0, 2), dtype=np.int64)
    n = g.num_nodes
    # Dense graphs: pick ranks among all non-edges; sparse: rejection sample.
    if count * 3 > pool:
        pick = rng.choice(pool, size=count, replace=False)
        return _non_edges_at(g, np.sort(pick))
    chosen = np.empty(0, dtype=np.int64)
    while chosen.size < count:
        need = count - chosen.size
        pairs = rng.integers(0, n, size=2 * need).reshape(-1, 2)
        keys = pair_keys(pairs, n)
        _, taken = sorted_lookup(np.sort(chosen), keys)
        keys = keys[(pairs[:, 0] != pairs[:, 1]) & ~g.is_edge(keys) & ~taken]
        keys = keys[first_index(keys) == np.arange(keys.size)]
        chosen = np.concatenate([chosen, keys[:need]])
    return np.stack([chosen // n, chosen % n], axis=1)


def generate_split(g: Graph, spec: SplitSpec) -> DatasetSplit:
    """Bucket every edge by its heuristic value; sample negatives per bucket.

    Heuristics are computed on the full source graph before any edges are
    hidden, and only as far as the buckets read them (_read_bound). The
    observed graph keeps only train positives, so validation and test
    structure never enters message passing by default.
    """
    if g.edge_count < 1:
        raise InputError("cannot split a graph with no edges")
    ranges = spec.bucket_ranges()
    edges = g.edges()
    values = heuristic_value(g, edges[:, 0], edges[:, 1], spec.heuristic, _read_bound(spec))
    pos = {}
    for b in BUCKETS:
        lo, hi = ranges[b]
        # Boolean selection keeps each bucket's edges in g.edges() order.
        pos[b] = edges[_in_range(values, lo, hi)]
        if not pos[b].size:
            raise DegenerateSplitError(
                f"{b} bucket received zero edges for {spec.heuristic} "
                f"{spec.direction} split with ranges {ranges[b]}"
            )
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
    """A split's bucket sizes and how its thresholds were read; verify_split
    raises on any violation, so violations is always empty."""

    bucket_counts: dict
    interpretation: str
    violations = ()


def reference_value(g: Graph, u, v, name: str, bound=math.inf):
    """heuristic_value from the set/BFS references in bruteforce, one pair at
    a time: an independent re-check of the production path."""
    adj = bruteforce.adjacency_sets(g.num_nodes, g.edges())
    return np.array(
        [bruteforce.heuristic_brute(adj, a, b, name, bound)
         for a, b in zip(u.tolist(), v.tolist())],
        dtype=np.float64,
    )


def _stacked(parts):
    """The (k, 2) pair arrays as one, and the index of the part each row
    came from."""
    owner = np.repeat(np.arange(len(parts)), [p.shape[0] for p in parts])
    return np.concatenate(parts), owner


def verify_split(g: Graph, split: DatasetSplit, heuristic=reference_value) -> SplitReport:
    """Recheck every bucket assignment against heuristic values of g.

    `heuristic(g, u, v, name, bound=...)` gives the value of each pair
    (u[i], v[i]), capped at bound: by default `reference_value`, a check that
    shares no code with the production path, or `heuristic_value` for the
    batched path. The positives are read only as far as the buckets need
    (_read_bound); those outside their range are evaluated again uncapped,
    so a violation shows the exact value. Raises ValidationError on any violated
    membership, on a negative that is an edge, a self-pair or a repeat of an
    earlier negative (in any bucket), and on an empty negative set. Buckets
    are checked in order; within one, positive violations come first, then
    the negatives in list order. A self-pair, a repeat or an empty set raises
    at once; violations are collected and the first 10 are shown.
    """
    spec = split.spec
    ranges = spec.bucket_ranges()
    pos, pos_owner = _stacked([split.pos(b) for b in BUCKETS])
    bound = _read_bound(spec)
    values = np.asarray(heuristic(g, pos[:, 0], pos[:, 1], spec.heuristic, bound=bound),
                        dtype=np.float64)
    lo, hi = np.array([ranges[b] for b in BUCKETS]).T
    outside = ~_in_range(values, lo[pos_owner], hi[pos_owner])
    if bound < math.inf and outside.any():
        values[outside] = heuristic(g, pos[outside, 0], pos[outside, 1], spec.heuristic)
    neg, owner = _stacked([split.neg(b) for b in BUCKETS])
    keys = pair_keys(neg, g.num_nodes)
    first = first_index(keys)
    bad = (neg[:, 0] == neg[:, 1]) | (first != np.arange(keys.size))
    is_edge = g.is_edge(keys)
    violations = []
    counts = {}
    for k, bucket in enumerate(BUCKETS):
        counts[bucket] = int(split.pos(bucket).shape[0])
        wrong = outside & (pos_owner == k)
        for (u, v), val in zip(pos[wrong].tolist(), values[wrong].tolist()):
            violations.append({"bucket": bucket, "edge": [u, v], "value": val})
        if split.neg(bucket).shape[0] == 0:
            raise ValidationError(f"{bucket} negative set is empty")
        raised = np.flatnonzero(bad & (owner == k))
        if raised.size:
            u, v = neg[raised[0]].tolist()
            if u == v:
                raise ValidationError(f"{bucket}_neg holds the self-pair {[u, v]}")
            raise ValidationError(
                f"{bucket}_neg repeats the pair {[u, v]}, "
                f"already in {BUCKETS[owner[first[raised[0]]]]}_neg"
            )
        for u, v in neg[is_edge & (owner == k)].tolist():
            violations.append({"bucket": f"{bucket}_neg", "edge": [u, v], "value": None})
    if violations:
        shown = violations[:10]
        raise ValidationError(
            f"{len(violations)} bucket violation(s), first {len(shown)}: {shown}"
        )
    return SplitReport(
        bucket_counts=counts,
        interpretation=(
            f"{spec.heuristic} {spec.direction} thresholds ({spec.t1}, {spec.t2}) "
            f"resolved as sorted boundaries lo={min(spec.t1, spec.t2)}, "
            f"hi={max(spec.t1, spec.t2)}"
        ),
    )


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
    [0, num_nodes); floats and booleans are rejected, not read as integers.
    """
    arr = np.array(rows)
    if arr.size == 0 and arr.ndim == 1:
        return np.empty((0, 2), dtype=np.int64)
    if (arr.ndim != 2 or arr.shape[1] != 2 or arr.dtype.kind not in "iu"
            or bool in set(map(type, itertools.chain.from_iterable(rows)))):
        raise ValueError(f"{key} must be a list of [u, v] integer pairs")
    if arr.min() < 0 or arr.max() >= num_nodes:
        raise ValueError(f"{key} holds a node id outside [0, {num_nodes})")
    return arr.astype(np.int64)


def _check_positives(path, g: Graph, arrays):
    """Raise ValidationError unless the positive buckets, read as u < v
    pairs, hold every edge of g exactly once; the message names the first
    bucket and pair at fault in list order, or else the first missing edge."""
    pos, owner = _stacked([arrays[f"{b}_pos"] for b in BUCKETS])
    keys = pair_keys(pos, g.num_nodes)
    if np.array_equal(np.sort(keys), g.edge_keys):
        return
    first = first_index(keys)
    stray = np.flatnonzero(~g.is_edge(keys) | (first != np.arange(keys.size)))
    if stray.size:
        i = stray[0]
        u, v = pos[i].tolist()
        if first[i] != i:
            raise ValidationError(
                f"{path}: {BUCKETS[owner[i]]}_pos repeats the edge {[u, v]}, "
                f"already in {BUCKETS[owner[first[i]]]}_pos"
            )
        raise ValidationError(
            f"{path}: {BUCKETS[owner[i]]}_pos holds {[u, v]}, which is not an edge of the graph"
        )
    u, v = g.edges()[~sorted_lookup(np.sort(keys), g.edge_keys)[1]][0].tolist()
    raise ValidationError(f"{path}: the graph's edge {[u, v]} is in no positive bucket")


def load_split(path, g: Graph) -> DatasetSplit:
    """Load a persisted split and revalidate it against the source graph:
    the positives must be g's edges, each once, and verify_split re-checks
    the buckets with the batched heuristics."""
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
    except InputError as exc:  # a spec value SplitSpec rejects, as a flag would be
        raise InputError(f"{path}: {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: malformed split: {exc}")
    _check_positives(path, g, arrays)
    split = DatasetSplit(
        observed_graph=g.subgraph_on(arrays["train_pos"]),
        spec=spec,
        **arrays,
    )
    try:
        verify_split(g, split, heuristic=heuristic_value)
    except ValidationError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    return split
