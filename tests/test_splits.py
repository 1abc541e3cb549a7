import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from counterlink import bruteforce
from counterlink.errors import DegenerateSplitError, InputError, ValidationError
from counterlink.graphs import Graph
from counterlink.rng import stream_rng
from counterlink.splits import (
    DatasetSplit,
    SplitSpec,
    generate_split,
    heuristic_value,
    load_split,
    sample_negatives,
    save_split,
    verify_split,
)
from negatives_reference import sparse_negatives_reference


def graph_of(n, edges):
    return Graph.from_edge_array(n, np.array(edges, dtype=np.int64).reshape(-1, 2), np.eye(n))


def ba_graph(n, m, seed):
    """Reference preferential-attachment construction used as split fodder."""
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    urn = [x for e in edges for x in e]
    for new in range(m, n):
        targets = set()
        while len(targets) < m:
            pick = urn[int(rng.integers(0, len(urn)))] if urn else int(rng.integers(0, new))
            if pick != new:
                targets.add(pick)
        for t in targets:
            edges.append((t, new))
            urn.extend([t, new])
    return graph_of(n, edges)


def sbm_graph(sizes, p_in, p_out, seed):
    rng = np.random.default_rng(seed)
    bounds = np.cumsum([0] + list(sizes))
    n = bounds[-1]
    block = np.searchsorted(bounds, np.arange(n), side="right") - 1
    iu, ju = np.triu_indices(n, k=1)
    same = block[iu] == block[ju]
    p = np.where(same, p_in, p_out)
    mask = rng.random(iu.size) < p
    return graph_of(n, list(zip(iu[mask], ju[mask])))


class TestSpec:
    def test_rejects_bad_values(self):
        with pytest.raises(InputError):
            SplitSpec("XX", "forward", 1, 2)
        with pytest.raises(InputError):
            SplitSpec("CN", "sideways", 1, 2)
        with pytest.raises(InputError):
            SplitSpec("CN", "forward", -1, 2)
        with pytest.raises(InputError):
            SplitSpec("CN", "forward", 0.5, 2)
        with pytest.raises(InputError):
            SplitSpec("CN", "forward", 2, 2)

    def test_bucket_ranges_partition(self):
        for spec in (
            SplitSpec("CN", "forward", 1, 2),
            SplitSpec("CN", "backward", 2, 1),
            SplitSpec("PA", "forward", 100, 50),
            SplitSpec("PA", "backward", 50, 100),
        ):
            ranges = spec.bucket_ranges()
            edges = sorted({r[0] for r in ranges.values()} | {r[1] for r in ranges.values()})
            assert edges[0] == 0.0 and edges[-1] == math.inf
            # every value lands in exactly one bucket
            for val in [0, 0.5, 1, 1.5, 2, 49, 50, 75, 100, 1000, math.inf]:
                hits = [
                    b
                    for b, (lo, hi) in ranges.items()
                    if lo <= val < hi or (val == math.inf and hi == math.inf)
                ]
                assert len(hits) == 1, (spec, val, hits)


class TestBucketing:
    def test_cn_forward_examples(self):
        spec = SplitSpec("CN", "forward", 1, 2)
        r = spec.bucket_ranges()
        assert r["train"] == (0.0, 1.0)
        assert r["valid"] == (1.0, 2.0)
        assert r["test"] == (2.0, math.inf)

    def test_cn_backward_examples(self):
        spec = SplitSpec("CN", "backward", 2, 1)
        r = spec.bucket_ranges()
        assert r["train"] == (2.0, math.inf)
        assert r["test"] == (0.0, 1.0)

    def test_pa_forward_orientation_on_ba_sample(self):
        g = ba_graph(100, 2, seed=4)
        spec = SplitSpec("PA", "forward", 100, 50, seed=1)
        split = generate_split(g, spec)
        adj = bruteforce.adjacency_sets(g.num_nodes, g.edges())
        for u, v in split.test_pos:
            assert bruteforce.pa_brute(adj, int(u), int(v)) >= 100
        for u, v in split.train_pos:
            assert bruteforce.pa_brute(adj, int(u), int(v)) < 50
        for u, v in split.valid_pos:
            assert 50 <= bruteforce.pa_brute(adj, int(u), int(v)) < 100

    def test_membership_recomputed_from_full_graph(self):
        g = sbm_graph([40, 40], 0.25, 0.02, seed=9)
        spec = SplitSpec("CN", "backward", 2, 1, seed=3)
        split = generate_split(g, spec)
        for u, v in split.train_pos:
            assert heuristic_value(g, int(u), int(v), "CN") >= 2
        for u, v in split.valid_pos:
            assert heuristic_value(g, int(u), int(v), "CN") == 1
        for u, v in split.test_pos:
            assert heuristic_value(g, int(u), int(v), "CN") == 0

    def test_observed_graph_hides_valid_test(self):
        g = sbm_graph([40, 40], 0.25, 0.02, seed=9)
        split = generate_split(g, SplitSpec("CN", "backward", 2, 1, seed=3))
        obs = split.observed_graph
        assert obs.edge_count == split.train_pos.shape[0]
        for u, v in split.valid_pos:
            assert not obs.has_edge(int(u), int(v))
        for u, v in split.test_pos:
            assert not obs.has_edge(int(u), int(v))
        assert np.array_equal(obs.features, g.features)

    def test_degenerate_bucket_named(self):
        g = graph_of(4, [(0, 1), (1, 2), (2, 3)])  # path: every edge CN=0
        with pytest.raises(DegenerateSplitError, match="valid"):
            generate_split(g, SplitSpec("CN", "forward", 1, 2))

    def test_seed_changes_negatives_not_positives(self):
        g = sbm_graph([30, 30], 0.3, 0.03, seed=2)
        a = generate_split(g, SplitSpec("CN", "forward", 1, 2, seed=10))
        b = generate_split(g, SplitSpec("CN", "forward", 1, 2, seed=11))
        assert np.array_equal(a.train_pos, b.train_pos)
        assert np.array_equal(a.test_pos, b.test_pos)
        assert not np.array_equal(a.train_neg, b.train_neg)


class TestNegatives:
    def test_complete_graph_has_no_candidates(self):
        g = graph_of(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        with pytest.raises(InputError):
            sample_negatives(g, 1, seed=0)

    def test_single_candidate(self):
        g = graph_of(3, [(0, 1), (1, 2)])
        assert sample_negatives(g, 1, seed=5).tolist() == [[0, 2]]

    def test_determinism(self):
        g = sbm_graph([20, 20], 0.2, 0.05, seed=1)
        a = sample_negatives(g, 30, seed=42)
        b = sample_negatives(g, 30, seed=42)
        assert np.array_equal(a, b)

    def test_negatives_are_non_edges_and_distinct(self):
        g = sbm_graph([20, 20], 0.3, 0.05, seed=6)
        neg = sample_negatives(g, 50, seed=7)
        keys = {tuple(e) for e in neg.tolist()}
        assert len(keys) == 50
        for u, v in neg:
            assert u < v and not g.has_edge(int(u), int(v))


    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_dense_branch_matches_enumeration(self, seed):
        def enumerated(g, count, rng):
            # The n x n enumeration the dense branch replaced, kept as the oracle.
            dense = np.zeros((g.num_nodes, g.num_nodes), dtype=bool)
            e = g.edges()
            if e.size:
                dense[e[:, 0], e[:, 1]] = True
            iu, ju = np.triu_indices(g.num_nodes, k=1)
            cand = np.stack([iu, ju], axis=1)[~dense[iu, ju]]
            pick = rng.choice(cand.shape[0], size=count, replace=False)
            return cand[np.sort(pick)]

        rng = np.random.default_rng(seed)
        for n, p in ((2, 0.0), (6, 0.0), (9, 0.5), (12, 0.8), (15, 0.95)):
            iu, ju = np.triu_indices(n, k=1)
            keep = rng.random(iu.size) < p
            g = graph_of(n, np.stack([iu[keep], ju[keep]], axis=1))
            pool = g.non_edge_count()
            for count in sorted({pool, pool // 2 + 1, pool // 3 + 1} - {0}):
                got = sample_negatives(g, count, seed=seed)
                want = enumerated(g, count, stream_rng(seed, "negatives"))
                assert got.dtype == want.dtype and np.array_equal(got, want)


class TestSparseNegativesMatchReference:
    @pytest.mark.parametrize("n", [2, 3, 7, 300, 1500, 2**31 - 1, 2**33])
    def test_array_draws_equal_scalar_draws(self, n):
        # The premise of the batched branch: one array call of integers()
        # returns the scalar calls' values and leaves the generator where
        # they leave it.
        for seed in range(3):
            scalar, batched = np.random.default_rng(seed), np.random.default_rng(seed)
            one_by_one = [int(scalar.integers(0, n)) for _ in range(301)]
            assert batched.integers(0, n, size=301).tolist() == one_by_one
            assert scalar.bit_generator.state == batched.bit_generator.state

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_byte_identical_to_one_pair_loop(self, data):
        n = data.draw(st.integers(3, 40), label="n")
        iu, ju = np.triu_indices(n, k=1)
        p = data.draw(st.sampled_from([0.0, 0.1, 0.4, 0.8]), label="p")
        keep = np.random.default_rng(data.draw(st.integers(0, 99), label="graph")).random(
            iu.size) < p
        g = graph_of(n, np.stack([iu[keep], ju[keep]], axis=1))
        pool = g.non_edge_count()
        # count * 3 <= pool forces the sparse branch.
        count = data.draw(st.one_of(st.just(0), st.just(pool // 3),
                                    st.integers(0, pool // 3)), label="count")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        got = sample_negatives(g, count, seed=seed)
        want = sparse_negatives_reference(g, count, stream_rng(seed, "negatives"))
        assert got.dtype == want.dtype and got.shape == (count, 2)
        assert got.tobytes() == want.tobytes()

    def test_multi_round_draws_are_exercised(self):
        # 51 of 66 pairs are edges, so a round keeps few of its candidates
        # and the next round must continue the stream where it stopped.
        class CountingRng:
            def __init__(self, rng):
                self.rng, self.rounds = rng, 0

            def integers(self, *args, **kwargs):
                self.rounds += 1
                return self.rng.integers(*args, **kwargs)

        g = graph_of(12, [(i, j) for i in range(12) for j in range(i + 1, 12)
                          if (i + j) % 4])
        count = g.non_edge_count() // 3
        for seed in range(10):
            rng = CountingRng(stream_rng(seed, "negatives"))
            got = sample_negatives(g, count, rng=rng)
            want = sparse_negatives_reference(g, count, stream_rng(seed, "negatives"))
            assert rng.rounds > 1
            assert got.tobytes() == want.tobytes()


class TestVerify:
    def make_split(self):
        g = sbm_graph([40, 40], 0.25, 0.02, seed=9)
        return g, generate_split(g, SplitSpec("CN", "backward", 2, 1, seed=3))

    def test_fresh_split_clean(self):
        g, split = self.make_split()
        report = verify_split(g, split)
        assert report.violations == []
        assert report.bucket_counts["train"] == split.train_pos.shape[0]
        assert "sorted boundaries" in report.interpretation

    def test_moved_edge_detected(self):
        g, split = self.make_split()
        moved = split.train_pos[:1]
        split.train_pos = split.train_pos[1:]
        split.test_pos = np.concatenate([split.test_pos, moved])
        with pytest.raises(ValidationError, match="1 bucket violation"):
            verify_split(g, split)

    def test_self_pair_negative_rejected(self):
        g, split = self.make_split()
        split.test_neg = split.test_neg.copy()
        split.test_neg[0] = [5, 5]
        with pytest.raises(ValidationError, match=r"test_neg holds the self-pair \[5, 5\]"):
            verify_split(g, split)

    def test_negative_repeated_within_bucket_rejected(self):
        g, split = self.make_split()
        split.valid_neg = split.valid_neg.copy()
        split.valid_neg[1] = split.valid_neg[2]
        u, v = split.valid_neg[2].tolist()
        with pytest.raises(ValidationError,
                           match=rf"valid_neg repeats the pair \[{u}, {v}\], already in valid_neg"):
            verify_split(g, split)

    def test_negative_repeated_across_buckets_rejected(self):
        # Reversed endpoints name the same undirected pair.
        g, split = self.make_split()
        split.test_neg = split.test_neg.copy()
        split.test_neg[0] = split.train_neg[3][::-1]
        v, u = split.train_neg[3].tolist()
        with pytest.raises(ValidationError,
                           match=rf"test_neg repeats the pair \[{u}, {v}\], already in train_neg"):
            verify_split(g, split)

    def test_empty_negative_set_rejected(self):
        g, split = self.make_split()
        split.train_neg = np.empty((0, 2), dtype=np.int64)
        with pytest.raises(ValidationError, match="negative set is empty"):
            verify_split(g, split)


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        g = sbm_graph([40, 40], 0.25, 0.02, seed=9)
        split = generate_split(g, SplitSpec("CN", "backward", 2, 1, seed=3))
        path = tmp_path / "split.json"
        save_split(split, path)
        loaded = load_split(path, g)
        for name in ("train_pos", "valid_pos", "test_pos", "train_neg", "valid_neg", "test_neg"):
            assert np.array_equal(getattr(loaded, name), getattr(split, name)), name
        assert loaded.spec == split.spec

    def test_loader_revalidates(self, tmp_path):
        g = sbm_graph([40, 40], 0.25, 0.02, seed=9)
        split = generate_split(g, SplitSpec("CN", "backward", 2, 1, seed=3))
        path = tmp_path / "split.json"
        save_split(split, path)
        doc = json.loads(path.read_text())
        doc["edges"]["test_pos"].append(doc["edges"]["train_pos"][0])
        doc["edges"]["train_pos"] = doc["edges"]["train_pos"][1:]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
            load_split(path, g)

    def test_loader_rejects_malformed_negatives(self, tmp_path):
        g = sbm_graph([40, 40], 0.25, 0.02, seed=9)
        split = generate_split(g, SplitSpec("CN", "backward", 2, 1, seed=3))
        path = tmp_path / "split.json"
        save_split(split, path)
        doc = json.loads(path.read_text())
        doc["edges"]["test_neg"][1] = doc["edges"]["test_neg"][2]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="test_neg repeats the pair"):
            load_split(path, g)

    def test_ranges_surfaced_in_json(self, tmp_path):
        g = ba_graph(100, 2, seed=4)
        split = generate_split(g, SplitSpec("PA", "forward", 100, 50, seed=1))
        path = tmp_path / "split.json"
        save_split(split, path)
        doc = json.loads(path.read_text())
        assert doc["bucket_ranges"]["train"] == [0.0, 50.0]
        assert doc["bucket_ranges"]["test"] == [100.0, "inf"]
