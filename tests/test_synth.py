import tracemalloc

import numpy as np
import pytest

from counterlink import synth
from counterlink.errors import ConfigError
from counterlink.synth import (
    SyntheticGraphSpec,
    ba_edges,
    er_edges,
    near_equal_blocks,
    sbm_edges,
    synth_graph,
    write_graph_files,
)
from synth_reference import er_edges_reference, sbm_edges_reference


def reference_ba(n, m, seed):
    """Independent preferential-attachment build with the same seed-graph
    convention (complete graph on m nodes, m distinct targets per arrival),
    used to cross-check edge accounting."""
    rng = np.random.default_rng(seed)
    edges = set()
    degree = [0] * n
    for i in range(m):
        for j in range(i + 1, m):
            edges.add((i, j))
            degree[i] += 1
            degree[j] += 1
    for new in range(m, n):
        chosen = set()
        while len(chosen) < m:
            weights = np.array(degree[:new], dtype=float)
            if weights.sum() == 0:
                pick = int(rng.integers(0, new))
            else:
                pick = int(rng.choice(new, p=weights / weights.sum()))
            chosen.add(pick)
        for t in chosen:
            edges.add((min(t, new), max(t, new)))
            degree[t] += 1
            degree[new] += 1
    return len(edges)


class TestSpecValidation:
    def test_small_n_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticGraphSpec(family="er", n=5)

    def test_bad_family(self):
        with pytest.raises(ConfigError):
            SyntheticGraphSpec(family="torus", n=20)

    def test_bad_probabilities(self):
        with pytest.raises(ConfigError):
            SyntheticGraphSpec(family="sbm", n=20, p_in=1.5)
        with pytest.raises(ConfigError):
            SyntheticGraphSpec(family="er", n=20, p=-0.1)

    def test_bad_ba_m(self):
        with pytest.raises(ConfigError):
            SyntheticGraphSpec(family="ba", n=20, m=0)


class TestDeterminism:
    def test_sbm_twice_identical_files(self, tmp_path):
        spec = SyntheticGraphSpec(family="sbm", n=100, blocks=2, p_in=0.5,
                                  p_out=0.01, seed=7)
        for tag in ("a", "b"):
            g = synth_graph(spec)
            write_graph_files(g, tmp_path / f"edges_{tag}.tsv",
                              tmp_path / f"feats_{tag}.csv")
        assert (tmp_path / "edges_a.tsv").read_bytes() == (tmp_path / "edges_b.tsv").read_bytes()
        assert (tmp_path / "feats_a.csv").read_bytes() == (tmp_path / "feats_b.csv").read_bytes()

    def test_seed_changes_output(self):
        a = synth_graph(SyntheticGraphSpec(family="er", n=40, p=0.2, seed=1))
        b = synth_graph(SyntheticGraphSpec(family="er", n=40, p=0.2, seed=2))
        assert not np.array_equal(a.edges(), b.edges())


class TestRowRunsMatchWholeTriangle:
    """Edges drawn in runs of whole upper-triangle rows equal the one-call
    whole-triangle draw byte for byte, and leave the rng at the same place.
    At n = 10 a 17-pair run ends exactly at the bound (rows of 9 and 8
    pairs), and a 5-pair bound gives every row a run of its own."""

    @pytest.mark.parametrize("run", [None, 17, 5])
    @pytest.mark.parametrize("sizes,p_in,p_out,seed", [
        ([5, 5], 0.3, 0.1, 0),
        ([150, 150], 0.1, 0.004, 1),
        ([300, 400, 301], [0.1, 0.05, 0.2], 0.01, 2),
        (near_equal_blocks(1500, 10), 0.1, 0.00085, 3),
        ([1, 1], 1.0, 1.0, 4),
    ])
    def test_identical_edges(self, monkeypatch, run, sizes, p_in, p_out, seed):
        if run:
            monkeypatch.setattr(synth, "_PAIR_RUN", run)
        n = sum(sizes)
        for draw, reference in (
            (lambda rng: sbm_edges(sizes, p_in, p_out, rng),
             lambda rng: sbm_edges_reference(sizes, p_in, p_out, rng)),
            (lambda rng: er_edges(n, 0.01, rng), lambda rng: er_edges_reference(n, 0.01, rng)),
        ):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got, expected = draw(rng), reference(ref_rng)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_memory_grows_with_the_run_not_the_triangle(self):
        # 1,124,250 pairs: the whole-triangle draw traces about 38 MB.
        tracemalloc.start()
        try:
            sbm_edges(near_equal_blocks(1500, 10), 0.1, 0.00085, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestFamilies:
    def test_er_p_zero_warns_and_succeeds(self):
        with pytest.warns(UserWarning, match="empty edge list"):
            g = synth_graph(SyntheticGraphSpec(family="er", n=50, p=0.0,
                                               feature_mode="constant:4"))
        assert g.edge_count == 0
        assert g.num_nodes == 50

    def test_ba_edge_count_matches_reference_accounting(self):
        g = synth_graph(SyntheticGraphSpec(family="ba", n=100, m=2,
                                           feature_mode="constant:4", seed=3))
        assert g.edge_count == 2 * (100 - 2) + 1
        assert g.edge_count == reference_ba(100, 2, 3)

    def test_ba_every_new_node_adds_m_edges(self):
        rng = np.random.default_rng(0)
        for m in (1, 2, 3):
            edges = ba_edges(30, m, rng)
            assert edges.shape[0] == m * (m - 1) // 2 + m * (30 - m)

    def test_sbm_block_structure(self):
        g = synth_graph(SyntheticGraphSpec(family="sbm", n=100, blocks=2,
                                           p_in=0.4, p_out=0.0, seed=5,
                                           feature_mode="constant:2"))
        for u, v in g.edges():
            assert (u < 50) == (v < 50)

    def test_near_equal_blocks(self):
        assert near_equal_blocks(10, 3) == [4, 3, 3]
        assert sum(near_equal_blocks(101, 4)) == 101


class TestFeatures:
    def test_degree_onehot_mode(self):
        g = synth_graph(SyntheticGraphSpec(family="er", n=30, p=0.2,
                                           feature_mode="degree-onehot:8", seed=2))
        assert g.features.shape == (30, 8)
        deg = g.degrees()
        assert all(g.features[i, min(int(deg[i]), 7)] == 1.0 for i in range(30))

    def test_node_onehot_mode(self):
        g = synth_graph(SyntheticGraphSpec(family="er", n=20, p=0.2,
                                           feature_mode="node-onehot", seed=2))
        assert np.array_equal(g.features, np.eye(20))
