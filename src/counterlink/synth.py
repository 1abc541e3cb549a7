"""Synthetic graph families standing in for full-scale citation datasets."""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .graphs import Graph, build_features, runs, save_edge_list, save_features_csv
from .rng import stream_rng

FAMILIES = ("sbm", "ba", "er")


@dataclass(frozen=True)
class SyntheticGraphSpec:
    family: str = "sbm"
    n: int = 100
    feature_mode: str = "degree-onehot:16"
    seed: int = 0
    blocks: int = 2
    p_in: float = 0.1
    p_out: float = 0.01
    m: int = 2
    p: float = 0.1

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.n < 10:
            raise ConfigError(f"synthetic graphs need n >= 10, got {self.n}")
        if self.family == "sbm":
            if self.blocks < 1 or self.blocks > self.n:
                raise ConfigError(f"blocks must be in [1, n], got {self.blocks}")
            for name, val in (("p_in", self.p_in), ("p_out", self.p_out)):
                if not 0.0 <= val <= 1.0:
                    raise ConfigError(f"{name} must be in [0, 1], got {val}")
        if self.family == "ba" and not 1 <= self.m < self.n:
            raise ConfigError(f"ba needs 1 <= m < n, got m={self.m}")
        if self.family == "er" and not 0.0 <= self.p <= 1.0:
            raise ConfigError(f"er needs p in [0, 1], got {self.p}")


# Upper-triangle pairs drawn per run of whole rows. A run holds at most this
# many pairs (a longer row runs alone), so memory grows with n plus the run,
# not n^2, and one run's arrays (128 KB each) stay in cache; PCG64 draws the
# same doubles in runs as in one call.
_PAIR_RUN = 1 << 14


def _bernoulli_pairs(n, prob, rng):
    """(m, 2) edges: each pair i < j, in row-major order, kept when its
    rng.random() draw is below prob(i, j), evaluated on one run's arrays."""
    edges = [np.empty((0, 2), dtype=np.int64)]
    for start, stop in runs(np.arange(n - 1, 0, -1), _PAIR_RUN):
        rows = np.arange(start, stop)
        counts = n - 1 - rows
        # Row r's pairs (r, r + 1), ..., (r, n - 1) start at first[r] in the run.
        first = np.cumsum(counts) - counts
        iu = np.repeat(rows, counts)
        ju = np.arange(iu.size) + np.repeat(rows + 1 - first, counts)
        mask = rng.random(iu.size) < prob(iu, ju)
        edges.append(np.stack([iu[mask], ju[mask]], axis=1))
    return np.concatenate(edges)


def sbm_edges(block_sizes, p_in, p_out, rng):
    """Bernoulli edges, p_in within a block (scalar or one value per block)."""
    block_sizes = list(block_sizes)
    bounds = np.cumsum([0] + block_sizes)
    n = int(bounds[-1])
    block_of = np.searchsorted(bounds, np.arange(n), side="right") - 1
    p_in = list(p_in) if isinstance(p_in, (list, tuple, np.ndarray)) else [p_in] * len(block_sizes)
    if len(p_in) != len(block_sizes):
        raise ConfigError("one p_in per block required")
    p_in = np.asarray(p_in)

    def prob(iu, ju):
        return np.where(block_of[iu] == block_of[ju], p_in[block_of[iu]], p_out)

    return _bernoulli_pairs(n, prob, rng)


def ba_edges(n, m, rng):
    """Preferential attachment from a complete seed graph on m nodes.

    Every new node attaches to m distinct existing nodes, so the edge count
    is exactly m(m-1)/2 + m(n-m).
    """
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    urn = [x for e in edges for x in e]
    for new in range(m, n):
        targets = set()
        while len(targets) < m:
            if urn:
                pick = int(urn[int(rng.integers(0, len(urn)))])
            else:
                pick = int(rng.integers(0, new))
            if pick != new:
                targets.add(pick)
        for t in sorted(targets):
            edges.append((t, new))
            urn.extend([t, new])
    return np.array(edges, dtype=np.int64)


def er_edges(n, p, rng):
    if p == 0.0:
        warnings.warn("er with p=0 produces an empty edge list")
        return np.empty((0, 2), dtype=np.int64)
    return _bernoulli_pairs(n, lambda iu, ju: p, rng)


def near_equal_blocks(n, blocks):
    base = n // blocks
    sizes = [base] * blocks
    for i in range(n - base * blocks):
        sizes[i] += 1
    return sizes


def synth_graph(spec: SyntheticGraphSpec) -> Graph:
    rng = stream_rng(spec.seed, "synth")
    if spec.family == "sbm":
        edges = sbm_edges(near_equal_blocks(spec.n, spec.blocks), spec.p_in,
                          spec.p_out, rng)
    elif spec.family == "ba":
        edges = ba_edges(spec.n, spec.m, rng)
    else:
        edges = er_edges(spec.n, spec.p, rng)
    if spec.feature_mode == "node-onehot":
        feats = np.eye(spec.n)
    else:
        degrees = np.bincount(edges.ravel(), minlength=spec.n)
        feats = build_features(spec.feature_mode, spec.n, degrees=degrees)
    return Graph.from_edge_array(spec.n, edges, feats)


def write_graph_files(g: Graph, edge_path, feature_path):
    save_edge_list(edge_path, g.edges())
    save_features_csv(feature_path, g.features)
