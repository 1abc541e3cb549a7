"""Per-edge split bucketing and verification, kept as the oracles for
`splits.generate_split` and `splits.verify_split`.

`generate_split` computes one heuristic over the whole edge list and selects
each bucket with a boolean mask. This is the loop it replaced: one value per
edge, from the set-based references (`bruteforce.cn_brute`,
`bruteforce.pa_brute`, and the queue BFS `sp_reference` with the edge left
out), appended to its bucket in `g.edges()` order. The negatives and the
observed graph are drawn as `generate_split` draws them, so `save_split` of
the two results must match byte for byte.

`verify_split` checks every bucket with one heuristic call and settles the
negatives with sorted-key array lookups. `verify_split_reference` is the
loop it replaced: one `bruteforce.heuristic_brute` value per positive and
one pass over the negatives with a dict of the pairs seen so far. Both must
return the same `SplitReport` or raise the same `ValidationError` text.
"""

import math

import numpy as np

from counterlink import bruteforce
from counterlink.graphs import Graph
from counterlink.rng import stream_rng
from counterlink.errors import ValidationError
from counterlink.splits import (
    BUCKETS, DatasetSplit, SplitReport, SplitSpec, sample_negatives,
)
from sp_reference import sp_reference


def _value(adj, u, v, name):
    if name == "CN":
        return bruteforce.cn_brute(adj, u, v)
    if name == "SP":
        return sp_reference(adj, u, v)
    return bruteforce.pa_brute(adj, u, v)


def _bucket_of(value, ranges):
    for bucket in BUCKETS:
        lo, hi = ranges[bucket]
        if lo <= value < hi or (value == math.inf and hi == math.inf):
            return bucket
    raise AssertionError(f"value {value} fell outside all buckets")


def generate_split_reference(g: Graph, spec: SplitSpec) -> DatasetSplit:
    ranges = spec.bucket_ranges()
    edges = g.edges()
    adj = bruteforce.adjacency_sets(g.num_nodes, edges)
    buckets = {b: [] for b in BUCKETS}
    for u, v in edges.tolist():
        buckets[_bucket_of(_value(adj, u, v, spec.heuristic), ranges)].append((u, v))
    pos = {b: np.array(buckets[b], dtype=np.int64) for b in BUCKETS}
    counts = {b: spec.neg_ratio * pos[b].shape[0] for b in BUCKETS}
    allneg = sample_negatives(g, sum(counts.values()), rng=stream_rng(spec.seed, "negatives"))
    neg = {}
    at = 0
    for b in BUCKETS:
        neg[b] = allneg[at : at + counts[b]]
        at += counts[b]
    return DatasetSplit(
        train_pos=pos["train"],
        valid_pos=pos["valid"],
        test_pos=pos["test"],
        train_neg=neg["train"],
        valid_neg=neg["valid"],
        test_neg=neg["test"],
        observed_graph=g.subgraph_on(pos["train"]),
        spec=spec,
    )


def verify_split_reference(g: Graph, split: DatasetSplit) -> SplitReport:
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
            val = bruteforce.heuristic_brute(adj, u, v, spec.heuristic)
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
