"""Structural-alignment measurement, degree-bias scans, and parameter sweeps.

Two distinct CN measurements live here on purpose: the per-sample CN at the
target link (distribution alignment across split sources) and the mean
pairwise CN over a whole block (density/degree-bias scans). They answer
different questions and are never interchangeable.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .cotrain import CotrainConfig, flex_tune, train_subgraphs
from .errors import ConfigError, CounterlinkError, InputError
from .graphs import Csr, Graph
from .splits import DatasetSplit, heuristic_value

SWEEPABLE = ("gamma", "lr_gnn", "alpha")


@dataclass
class HeuristicHistogram:
    heuristic: str
    bucket_edges: np.ndarray
    counts: np.ndarray
    mean: float
    source: str
    n_samples: int

    def as_dict(self):
        return {
            "heuristic": self.heuristic,
            "source": self.source,
            "bucket_edges": [float(e) for e in self.bucket_edges],
            "counts": [int(c) for c in self.counts],
            "mean": self.mean,
            "n_samples": self.n_samples,
        }


def _bucket_edges(heuristic, values):
    finite = [v for v in values if v != math.inf]
    top = max(finite) if finite else 0.0
    if heuristic in ("CN", "SP"):
        edges = list(np.arange(0.0, math.floor(top) + 2.0))
    else:
        # PA spans orders of magnitude; power-of-two buckets
        edges = [0.0, 1.0]
        while edges[-1] <= top:
            edges.append(edges[-1] * 2.0)
    edges.append(math.inf)
    return np.asarray(edges)


def histogram_of_values(values, heuristic, source) -> HeuristicHistogram:
    values = [float(v) for v in values]
    if not values:
        raise InputError("cannot histogram an empty value list")
    edges = _bucket_edges(heuristic, values)
    counts, _ = np.histogram(values, bins=edges)
    return HeuristicHistogram(
        heuristic=heuristic,
        bucket_edges=edges,
        counts=counts,
        mean=float(np.mean(values)),
        source=source,
        n_samples=len(values),
    )


def cn_at_target(adjacency, target) -> int:
    u, v = target
    m = adjacency.shape[0]
    if not (0 <= u < m and 0 <= v < m):
        raise InputError(f"target {target} out of range for {m} nodes")
    return int((adjacency[u] * adjacency[v]).sum())


def cn_distribution(samples, source="generated") -> HeuristicHistogram:
    """CN at each sample's target link, over its own adjacency."""
    values = []
    for sample in samples:
        target = sample.get("target")
        if target is None:
            raise InputError("sample carries no target endpoints")
        values.append(cn_at_target(sample["adjacency"], target))
    return histogram_of_values(values, "CN", source)


def samples_from_generated(gen) -> list:
    """{"adjacency", "target"} records, as load_samples yields them, from a
    GeneratedSample's thresholded blocks."""
    return [{"adjacency": adj, "target": (0, 1)} for adj in gen.thresholded_adj]


def link_heuristic_histogram(g: Graph, edges, heuristic, source) -> HeuristicHistogram:
    """Per-link heuristic values measured on the graph g, in one call."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    values = heuristic_value(g, edges[:, 0], edges[:, 1], heuristic)
    return histogram_of_values(values, heuristic, source)


@dataclass
class AlignmentReport:
    heuristic: str
    gen_gap: float
    train_gap: float
    improvement_ratio: float
    exact: bool

    def as_dict(self):
        return {
            "heuristic": self.heuristic,
            "gen_gap": self.gen_gap,
            "train_gap": self.train_gap,
            "improvement_ratio": "exact" if self.exact else self.improvement_ratio,
        }


def alignment_report(train_h, valid_h, gen_h) -> AlignmentReport:
    """How much closer generated samples sit to validation than train does."""
    names = {train_h.heuristic, valid_h.heuristic, gen_h.heuristic}
    if len(names) != 1:
        raise InputError(f"histograms measure different heuristics: {sorted(names)}")
    gen_gap = abs(gen_h.mean - valid_h.mean)
    train_gap = abs(train_h.mean - valid_h.mean)
    exact = gen_gap == 0.0
    ratio = math.inf if exact else train_gap / gen_gap
    return AlignmentReport(
        heuristic=train_h.heuristic,
        gen_gap=gen_gap,
        train_gap=train_gap,
        improvement_ratio=ratio,
        exact=exact,
    )


@dataclass
class DegreeBiasScan:
    points: list  # (mean pairwise CN, node count) per sample
    slope: float

    def as_rows(self):
        return [{"mean_cn": cn, "num_nodes": n} for cn, n in self.points]


def mean_pairwise_cn(adjacency) -> float:
    m = adjacency.shape[0]
    if m <= 1:
        return 0.0
    paths2 = adjacency @ adjacency
    off = ~np.eye(m, dtype=bool)
    return float(paths2[off].mean())


def fit_slope(xs, ys) -> float:
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.size < 2 or np.all(xs == xs[0]):
        return 0.0
    xbar, ybar = xs.mean(), ys.mean()
    return float(((xs - xbar) * (ys - ybar)).sum() / ((xs - xbar) ** 2).sum())


def degree_bias_scan(samples) -> DegreeBiasScan:
    """Mean pairwise CN against node count, with the least-squares slope."""
    points = []
    for sample in samples:
        adjacency = sample["adjacency"]
        points.append((mean_pairwise_cn(adjacency), int(adjacency.shape[0])))
    if not points:
        raise InputError("degree-bias scan needs at least one sample")
    slope = fit_slope([n for _, n in points], [cn for cn, _ in points])
    return DegreeBiasScan(points=points, slope=slope)


@dataclass
class SweepResult:
    param: str
    grid: list
    means: list
    stds: list
    per_point: list  # list of per-seed metric lists
    errors: dict  # str(value) -> list of error strings
    # One {value, seed, **CotrainResult.selection()} per finished run.
    # Reported in the manifest and on stdout, not in as_dict(), so
    # sweep.json keeps its layout.
    selections: list = field(default_factory=list)

    def as_dict(self):
        return {
            "param": self.param,
            "grid": list(self.grid),
            "means": self.means,
            "stds": self.stds,
            "per_point": self.per_point,
            "errors": self.errors,
        }


def run_sweep(
    param: str,
    grid,
    base_cfg: CotrainConfig,
    seeds,
    gnn_params,
    ggm_params,
    g: Graph,
    split: DatasetSplit,
    eval_norm: Csr = None,
) -> SweepResult:
    """Full co-training run per grid point per seed, one after another;
    metric is each run's own test Hits@K on eval_norm.

    eval_norm is the normalized evaluation adjacency handed to every run;
    when it is None, each run normalizes g's own. No sweepable parameter
    changes subgraph extraction, so each seed's train subgraphs are
    extracted once and reused at every grid point. Every point's config is
    built before the first run, so an invalid grid value raises at once; a
    run that fails with a CounterlinkError is recorded per point and the
    sweep continues.
    """
    if param not in SWEEPABLE:
        raise ConfigError(f"sweepable parameters are {SWEEPABLE}, got {param!r}")
    grid = list(grid)
    if not grid:
        raise InputError("sweep grid is empty")
    seeds = list(seeds)
    points = [replace(base_cfg, **{param: value}) for value in grid]
    subgraphs = {}  # seed -> train subgraphs
    means, stds, per_point, selections = [], [], [], []
    errors = {}
    for value, point in zip(grid, points):
        vals, errs = [], []
        for seed in seeds:
            try:
                cfg = replace(point, seed=seed)
                if seed not in subgraphs:
                    subgraphs[seed] = train_subgraphs(g, split, cfg)
                result = flex_tune(gnn_params, ggm_params, g, split, cfg,
                                   eval_norm=eval_norm, subgraphs=subgraphs[seed])
                vals.append(result.test_hits)
                selections.append({"value": value, "seed": seed, **result.selection()})
            except CounterlinkError as exc:  # recorded, sweep continues
                errs.append(f"{type(exc).__name__}: {exc}")
        per_point.append(vals)
        if errs:
            errors[str(value)] = errs
        means.append(float(np.mean(vals)) if vals else float("nan"))
        stds.append(float(np.std(vals)) if vals else float("nan"))
    return SweepResult(
        param=param, grid=grid, means=means, stds=stds, per_point=per_point,
        errors=errors, selections=selections,
    )
