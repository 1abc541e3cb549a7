"""Per-edge split bucketing, kept as the oracle for `splits.generate_split`.

`generate_split` computes one heuristic over the whole edge list and selects
each bucket with a boolean mask. This is the loop it replaced: one value per
edge, from the set-based references (`bruteforce.cn_brute`,
`bruteforce.pa_brute`, and the queue BFS `sp_reference` with the edge left
out), appended to its bucket in `g.edges()` order. The negatives and the
observed graph are drawn as `generate_split` draws them, so `save_split` of
the two results must match byte for byte.
"""

import math

import numpy as np

from counterlink import bruteforce
from counterlink.graphs import Graph
from counterlink.rng import stream_rng
from counterlink.splits import BUCKETS, DatasetSplit, SplitSpec, sample_negatives
from sp_reference import sp_reference


def _value(adj, u, v, name):
    if name == "CN":
        return bruteforce.cn_brute(adj, u, v)
    if name == "SP":
        return sp_reference(adj, u, v, exclude_edge=True)
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
