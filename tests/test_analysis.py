import json
import math
from dataclasses import replace

import numpy as np
import pytest

from counterlink.analysis import (
    AlignmentReport,
    alignment_report,
    cn_at_target,
    cn_distribution,
    degree_bias_scan,
    fit_slope,
    histogram_of_values,
    link_heuristic_histogram,
    mean_pairwise_cn,
    run_sweep,
    samples_from_generated,
    SweepResult,
)
from counterlink import analysis, cotrain
from counterlink.cotrain import CotrainConfig, flex_tune
from counterlink.errors import ConfigError, InputError, NumericError
from counterlink.generator import GgmTrainConfig, NoiseSpec, generate, pretrain_ggm
from counterlink.gnn import TrainConfig, evaluate_hits, normalize_adjacency, pretrain_gnn
from counterlink.graphs import Graph
from counterlink.rng import stream_rng
from counterlink.splits import SplitSpec, generate_split


def sbm_graph(sizes, p_in, p_out, seed):
    rng = np.random.default_rng(seed)
    bounds = np.cumsum([0] + list(sizes))
    n = bounds[-1]
    block = np.searchsorted(bounds, np.arange(n), side="right") - 1
    iu, ju = np.triu_indices(n, k=1)
    p = np.where(block[iu] == block[ju], p_in, p_out)
    mask = rng.random(iu.size) < p
    edges = np.stack([iu[mask], ju[mask]], axis=1)
    return Graph.from_edge_array(n, edges, np.eye(n))


def adjacency_of(edge_pairs, n):
    a = np.zeros((n, n))
    for u, v in edge_pairs:
        a[u, v] = a[v, u] = 1.0
    return a


def record(adjacency, target):
    return {"adjacency": adjacency, "target": target}


class TestCnDistribution:
    def test_all_zero_adjacencies(self):
        samples = [record(np.zeros((4, 4)), (0, 1)) for _ in range(5)]
        h = cn_distribution(samples)
        assert h.mean == 0.0
        assert h.counts[0] == 5
        assert h.counts.sum() == h.n_samples == 5

    def test_hand_built_mean(self):
        # target CNs 0, 0, 1, 3
        s0 = record(np.zeros((3, 3)), (0, 1))
        s1 = record(np.zeros((3, 3)), (0, 1))
        s2 = record(adjacency_of([(0, 2), (1, 2)], 3), (0, 1))
        a3 = adjacency_of([(0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)], 5)
        s3 = record(a3, (0, 1))
        h = cn_distribution([s0, s1, s2, s3])
        assert h.mean == pytest.approx(1.0)

    def test_missing_target_rejected(self):
        with pytest.raises(InputError):
            cn_distribution([{"adjacency": np.zeros((3, 3))}])

    def test_counts_permutation_invariant(self):
        rng = np.random.default_rng(0)
        samples = []
        for _ in range(20):
            n = int(rng.integers(3, 8))
            a = (rng.random((n, n)) < 0.4).astype(float)
            a = np.triu(a, 1)
            a = a + a.T
            samples.append(record(a, (0, 1)))
        h1 = cn_distribution(samples)
        h2 = cn_distribution(list(reversed(samples)))
        assert np.array_equal(h1.counts, h2.counts)
        assert h1.mean == h2.mean

    def test_generated_sample_adapter(self):
        g = sbm_graph([10, 10], 0.5, 0.05, seed=1)
        split = generate_split(g, SplitSpec("CN", "backward", 2, 1, seed=1))
        spec = NoiseSpec(noise_dim=3, num_psi=1)
        ggm = pretrain_ggm(
            split.observed_graph, split,
            GgmTrainConfig(epochs=2, patience=2, lr=1e-3, batch_size=0, seed=1), spec,
        ).params
        from counterlink.graphs import Edge, extract_for_links, make_batch

        links = [Edge(int(u), int(v)) for u, v in split.train_pos[:4]]
        batch = make_batch(extract_for_links(split.observed_graph, links, seed=2))
        sample = generate(ggm, batch, spec, 0.5, stream_rng(3, "gen"))
        h = cn_distribution(samples_from_generated(sample))
        assert h.n_samples == 4
        assert h.mean >= 0.0


class TestHistogram:
    def test_integer_buckets_for_cn(self):
        h = histogram_of_values([0, 1, 1, 2], "CN", "train")
        assert h.bucket_edges[0] == 0.0
        assert h.counts.tolist()[:3] == [1, 2, 1]

    def test_log_buckets_for_pa(self):
        h = histogram_of_values([1, 10, 100, 1000], "PA", "train")
        assert h.bucket_edges[-1] == math.inf
        assert h.counts.sum() == 4

    def test_mean_consistency(self):
        vals = np.random.default_rng(2).integers(0, 10, size=100).tolist()
        h = histogram_of_values(vals, "CN", "x")
        assert abs(h.mean - np.mean(vals)) < 1e-9

    def test_link_histogram_uses_graph_values(self):
        g = sbm_graph([10, 10], 0.6, 0.05, seed=3)
        edges = g.edges()[:10]
        h = link_heuristic_histogram(g, edges, "CN", "train")
        from counterlink import bruteforce

        adj = bruteforce.adjacency_sets(g.num_nodes, g.edges())
        direct = [bruteforce.cn_brute(adj, u, v) for u, v in edges.tolist()]
        assert h.mean == pytest.approx(np.mean(direct))


class TestAlignment:
    def make(self, mean, source):
        return histogram_of_values([mean], "CN", source)

    def test_exact_match_guarded(self):
        rep = alignment_report(self.make(3, "train"), self.make(1, "valid"),
                               self.make(1, "generated"))
        assert rep.exact
        assert rep.as_dict()["improvement_ratio"] == "exact"

    def test_arithmetic(self):
        rep = alignment_report(self.make(0, "train"), self.make(1, "valid"),
                               histogram_of_values([0.9], "CN", "generated"))
        assert rep.gen_gap == pytest.approx(0.1)
        assert rep.train_gap == pytest.approx(1.0)
        assert rep.improvement_ratio == pytest.approx(10.0)

    def test_heuristic_mismatch_rejected(self):
        with pytest.raises(InputError):
            alignment_report(
                histogram_of_values([1], "CN", "train"),
                histogram_of_values([1], "PA", "valid"),
                histogram_of_values([1], "CN", "generated"),
            )


class TestDegreeBias:
    def test_single_node_blocks(self):
        scan = degree_bias_scan([record(np.zeros((1, 1)), (0, 0))] * 3)
        assert all(cn == 0.0 for cn, _ in scan.points)

    def test_constant_cn_zero_slope(self):
        tri = adjacency_of([(0, 1), (1, 2), (0, 2)], 3)
        samples = [record(tri, (0, 1)), record(tri, (0, 1))]
        big = np.zeros((5, 5))
        big[:3, :3] = tri
        samples.append(record(big, (0, 1)))
        scan = degree_bias_scan(samples)
        # same mean CN would give slope 0; here mean CN differs so just check
        # the pure constant case explicitly:
        assert fit_slope([3, 3, 3], [1.0, 1.0, 1.0]) == 0.0

    def test_two_point_closed_form(self):
        scan = degree_bias_scan(
            [record(np.zeros((2, 2)), (0, 1)),
             record(adjacency_of([(0, 2), (1, 2)], 3), (0, 1))]
        )
        (cn1, n1), (cn2, n2) = scan.points
        assert scan.slope == pytest.approx((cn2 - cn1) / (n2 - n1))

    def test_mean_pairwise_cn_matches_bruteforce(self):
        rng = np.random.default_rng(5)
        a = (rng.random((6, 6)) < 0.5).astype(float)
        a = np.triu(a, 1)
        a = a + a.T
        vals = []
        for i in range(6):
            for j in range(6):
                if i != j:
                    vals.append(sum(a[i, w] * a[j, w] for w in range(6)))
        assert mean_pairwise_cn(a) == pytest.approx(np.mean(vals))


class TestSweep:
    def fixture(self):
        g = sbm_graph([16, 16], 0.45, 0.05, seed=4)
        split = generate_split(g, SplitSpec("CN", "backward", 2, 1, seed=4))
        obs = split.observed_graph
        gnn = pretrain_gnn(
            obs, split, TrainConfig(epochs=4, patience=4, lr=1e-2, dropout=0.0,
                                    seed=4, eval_k=3),
            hidden=8, layers=2,
        ).params
        spec = NoiseSpec(noise_dim=3, num_psi=1)
        ggm = pretrain_ggm(
            obs, split,
            GgmTrainConfig(epochs=4, patience=4, lr=1e-2, batch_size=0, seed=4), spec,
        ).params
        cfg = CotrainConfig(alpha=1.0, gamma=0.5, lr_gnn=1e-3, lr_ggm=1e-3,
                            epochs=1, patience=1, batch_size=16, noise=spec,
                            eval_k=3, seed=0)
        return g, split, obs, gnn, ggm, cfg

    def test_single_point_grid_equals_direct_run(self):
        g, split, obs, gnn, ggm, cfg = self.fixture()
        sweep = run_sweep("gamma", [0.5], cfg, [7], gnn, ggm, obs, split)
        direct = flex_tune(gnn, ggm, obs, split, replace(cfg, gamma=0.5, seed=7))
        direct_test = evaluate_hits(
            direct.gnn, normalize_adjacency(obs.adjacency), obs.features,
            split.test_pos, split.test_neg, cfg.eval_k,
        )
        assert len(sweep.grid) == 1
        assert sweep.means[0] == pytest.approx(direct_test)
        assert sweep.errors == {}

    def test_extracts_once_per_seed_with_unchanged_bytes(self, monkeypatch):
        g, split, obs, gnn, ggm, cfg = self.fixture()
        cfg = replace(cfg, max_nodes=6)  # subsampling makes extraction seed-dependent
        grid, seeds = [0.3, 0.5, 0.9], [7, 8]
        calls = []
        real = cotrain.extract_for_links
        monkeypatch.setattr(cotrain, "extract_for_links",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        sweep = run_sweep("gamma", grid, cfg, seeds, gnn, ggm, obs, split)
        assert len(calls) == len(seeds)
        # One-point sweeps extract for every point; stitched together they
        # must give the same sweep.json bytes.
        points = [run_sweep("gamma", [v], cfg, seeds, gnn, ggm, obs, split) for v in grid]
        assert len(calls) == len(seeds) * (1 + len(grid))
        stitched = SweepResult("gamma", grid, *(
            [x for p in points for x in getattr(p, key)]
            for key in ("means", "stds", "per_point")), errors={})
        assert (json.dumps(sweep.as_dict(), indent=2)
                == json.dumps(stitched.as_dict(), indent=2))
        # Each run reports its paired delta against the pre-trained predictor.
        base = evaluate_hits(gnn, normalize_adjacency(obs.adjacency), obs.features,
                             split.test_pos, split.test_neg, cfg.eval_k)
        runs = sweep.selections
        assert [(r["value"], r["seed"]) for r in runs] == [(v, s) for v in grid for s in seeds]
        assert [r["test_hits"] for r in runs] == [x for vals in sweep.per_point for x in vals]
        assert all(r["base_test_hits"] == base for r in runs)
        assert all(r["test_delta"] == r["test_hits"] - base for r in runs)

    def test_failures_recorded_and_sweep_continues(self, monkeypatch):
        g, split, obs, gnn, ggm, cfg = self.fixture()
        real = analysis.flex_tune

        def diverges_at_0_9(*args, **kwargs):
            if args[4].gamma == 0.9:
                raise NumericError("loss diverged")
            return real(*args, **kwargs)

        monkeypatch.setattr(analysis, "flex_tune", diverges_at_0_9)
        sweep = run_sweep("gamma", [0.5, 0.9], cfg, [7], gnn, ggm, obs, split)
        assert sweep.errors == {"0.9": ["NumericError: loss diverged"]}
        assert np.isfinite(sweep.means[0])
        assert math.isnan(sweep.means[1])

    def test_invalid_grid_value_raises_before_any_run(self, monkeypatch):
        g, split, obs, gnn, ggm, cfg = self.fixture()
        monkeypatch.setattr(analysis, "flex_tune", lambda *a, **kw: pytest.fail("ran"))
        with pytest.raises(InputError, match="gamma must be in"):
            run_sweep("gamma", [0.5, 2.0], cfg, [7], gnn, ggm, obs, split)

    def test_programming_error_is_not_recorded(self, monkeypatch):
        g, split, obs, gnn, ggm, cfg = self.fixture()

        def broken(*args, **kwargs):
            raise TypeError("a bug, not a failed run")

        monkeypatch.setattr(analysis, "flex_tune", broken)
        with pytest.raises(TypeError, match="a bug"):
            run_sweep("gamma", [0.5], cfg, [7], gnn, ggm, obs, split)

    def test_unknown_param_rejected(self):
        g, split, obs, gnn, ggm, cfg = self.fixture()
        with pytest.raises(ConfigError):
            run_sweep("dropout", [0.1], cfg, [1], gnn, ggm, obs, split)

    def test_empty_grid_rejected(self):
        g, split, obs, gnn, ggm, cfg = self.fixture()
        with pytest.raises(InputError):
            run_sweep("gamma", [], cfg, [1], gnn, ggm, obs, split)
