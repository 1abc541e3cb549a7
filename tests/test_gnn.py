import math
import tracemalloc

import numpy as np
import pytest

from counterlink import autodiff as ad
from counterlink import gnn
from counterlink.errors import InputError, NumericError
from counterlink.gnn import (
    GcnParams,
    TrainConfig,
    evaluate_hits,
    gcn_forward,
    gcn_layers,
    hits_at_k,
    init_gcn_params,
    lp_loss,
    normalize_adjacency,
    normalize_dense_adjacency,
    pretrain_gnn,
    score_pairs,
)
from counterlink.graphs import Graph
from counterlink.rng import stream_rng
from counterlink.splits import SplitSpec, generate_split
from counterlink.synth import SyntheticGraphSpec, synth_graph
from graphs_reference import csr_from_dense, csr_to_dense


def graph_of(n, edges):
    return Graph.from_edge_array(n, np.array(edges, dtype=np.int64).reshape(-1, 2), np.eye(n))


def sbm_graph(sizes, p_in, p_out, seed, feat_dim=None):
    rng = np.random.default_rng(seed)
    bounds = np.cumsum([0] + list(sizes))
    n = bounds[-1]
    block = np.searchsorted(bounds, np.arange(n), side="right") - 1
    iu, ju = np.triu_indices(n, k=1)
    p = np.where(block[iu] == block[ju], p_in, p_out)
    mask = rng.random(iu.size) < p
    edges = np.stack([iu[mask], ju[mask]], axis=1)
    feats = np.eye(n) if feat_dim is None else rng.random((n, feat_dim))
    return Graph.from_edge_array(n, edges, feats)


class TestNormalize:
    def test_isolated_node(self):
        g = graph_of(1, [])
        norm = normalize_adjacency(g.adjacency)
        assert csr_to_dense(norm).tolist() == [[1.0]]

    def test_single_edge_all_half(self):
        g = graph_of(2, [(0, 1)])
        norm = csr_to_dense(normalize_adjacency(g.adjacency))
        assert np.allclose(norm, 0.5)

    def test_regular_graph_row_sums_one(self):
        # 4-cycle: every node degree 2
        g = graph_of(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        norm = csr_to_dense(normalize_adjacency(g.adjacency))
        assert np.allclose(norm.sum(axis=1), 1.0)

    def test_dense_matches_sparse(self):
        rng = np.random.default_rng(0)
        a = (rng.random((7, 7)) < 0.4).astype(float)
        a = np.triu(a, 1)
        a = a + a.T
        g = Graph.from_edge_array(7, np.stack(np.nonzero(np.triu(a, 1)), 1), np.eye(7))
        sparse = csr_to_dense(normalize_adjacency(g.adjacency))
        dense = normalize_dense_adjacency(a)[0]
        assert np.allclose(sparse, dense, atol=1e-12)


class TestStackedDenseKernels:
    """A [k, m, m] stack gives every slice's bytes of a one-block call,
    forward and backward."""

    @staticmethod
    def stack(k, m, seed):
        rng = np.random.default_rng(seed)
        # Thresholded probabilities: zeros, ones and values in between.
        a = rng.random((k, m, m)) * (rng.random((k, m, m)) < 0.6)
        a[:, np.arange(m), np.arange(m)] = 0.0
        return a, rng

    @pytest.mark.parametrize("k,m", [(1, 1), (4, 1), (3, 2), (5, 7), (2, 23)])
    def test_normalize_dense_adjacency(self, k, m):
        a, rng = self.stack(k, m, seed=m)
        g = rng.standard_normal((k, m, m))
        prop, vjp = normalize_dense_adjacency(a)
        grad = vjp(g)
        for i in range(k):
            prop_i, vjp_i = normalize_dense_adjacency(a[i])
            assert prop[i].tobytes() == prop_i.tobytes()
            assert grad[i].tobytes() == vjp_i(g[i]).tobytes()

    @pytest.mark.parametrize("k,m", [(1, 1), (4, 1), (3, 2), (5, 7), (2, 23)])
    @pytest.mark.parametrize("need_prop", [False, True])
    def test_dense_gcn_forward(self, k, m, need_prop):
        a, rng = self.stack(k, m, seed=m + 1)
        prop, _ = normalize_dense_adjacency(a)
        x = rng.standard_normal((k, m, 5))
        params = init_gcn_params(5, hidden=4, layers=3, dropout=0.1, rng=rng)
        for b in params.biases:
            b[:] = rng.standard_normal(b.shape)
        g = rng.standard_normal((k, m, 4))
        emb, vjp = gcn_layers(params.weights, params.biases, prop, x)
        g_prop, g_first, g_params = vjp(g, need_prop)
        assert g_params[0] is None
        for i in range(k):
            emb_i, vjp_i = gcn_layers(params.weights, params.biases, prop[i], x[i])
            g_prop_i, g_first_i, g_params_i = vjp_i(g[i], need_prop)
            assert emb[i].tobytes() == emb_i.tobytes()
            assert g_first[i].tobytes() == g_first_i.tobytes()
            assert (g_prop is None) == (g_prop_i is None) == (not need_prop)
            if need_prop:
                assert g_prop[i].tobytes() == g_prop_i.tobytes()
            for got, want in zip(g_params[1:], g_params_i[1:]):
                assert got[i].tobytes() == want.tobytes()


    @pytest.mark.parametrize("relu_last", [False, True])
    def test_csr_matches_its_dense_matrix(self, relu_last):
        a, rng = self.stack(1, 9, seed=3)
        a = np.triu(a[0], 1)
        prop = normalize_dense_adjacency(a + a.T)[0]
        x = rng.standard_normal((9, 5))
        params = init_gcn_params(5, hidden=4, layers=2, dropout=0.0, rng=rng)
        g = rng.standard_normal((9, 4))
        dense, dense_vjp = gcn_layers(params.weights, params.biases, prop, x,
                                      relu_last=relu_last)
        sparse, sparse_vjp = gcn_layers(params.weights, params.biases, csr_from_dense(prop),
                                        x, relu_last=relu_last)
        assert np.allclose(sparse, dense, atol=1e-12)
        _, g_first, g_params = dense_vjp(g)
        _, g_first_sparse, g_params_sparse = sparse_vjp(g)
        assert np.allclose(g_first_sparse, g_first, atol=1e-12)
        for got, want in zip(g_params_sparse[1:], g_params[1:]):
            assert np.allclose(got, want, atol=1e-12)


class TestForward:
    def test_zero_weights_zero_embeddings(self):
        g = graph_of(3, [(0, 1), (1, 2)])
        params = init_gcn_params(3, hidden=4, layers=2, dropout=0.1,
                                 rng=np.random.default_rng(0))
        for w in params.weights:
            w[:] = 0.0
        h = gcn_forward(params, normalize_adjacency(g.adjacency), g.features)
        assert np.array_equal(h.value, np.zeros((3, 4)))

    def test_single_node_single_layer_is_xw(self):
        g = Graph.from_edge_array(1, np.empty((0, 2)), np.array([[2.0, -1.0]]))
        params = init_gcn_params(2, hidden=3, layers=1, dropout=0.1,
                                 rng=np.random.default_rng(1))
        h = gcn_forward(params, normalize_adjacency(g.adjacency), g.features)
        assert np.allclose(h.value, g.features @ params.weights[0])

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        a = (rng.random((10, 10)) < 0.3).astype(float)
        a = np.triu(a, 1)
        a = a + a.T
        x = rng.standard_normal((10, 5))
        params = init_gcn_params(5, hidden=6, layers=2, dropout=0.1, rng=rng)
        perm = rng.permutation(10)
        p = np.eye(10)[perm]

        base = gcn_forward(params, csr_from_dense(normalize_dense_adjacency(a)[0]), x).value
        permuted = gcn_forward(
            params, csr_from_dense(normalize_dense_adjacency(p @ a @ p.T)[0]), p @ x,
        ).value
        assert np.allclose(p @ base, permuted, atol=1e-9)

    def test_shape_mismatch(self):
        g = graph_of(3, [(0, 1)])
        params = init_gcn_params(3, hidden=4, layers=2, dropout=0.1,
                                 rng=np.random.default_rng(0))
        with pytest.raises(InputError):
            gcn_forward(params, normalize_adjacency(g.adjacency), np.ones((5, 3)))

    def test_first_weight_must_take_the_feature_width(self):
        g = graph_of(3, [(0, 1)])
        params = init_gcn_params(4, hidden=4, layers=2, dropout=0.1,
                                 rng=np.random.default_rng(0))
        with pytest.raises(InputError, match="'gnn.w0' has 4 rows, not the 3 feature columns"):
            gcn_forward(params, normalize_adjacency(g.adjacency), g.features)

    def test_traced_features_rejected(self):
        g = graph_of(3, [(0, 1)])
        params = init_gcn_params(3, hidden=4, layers=2, dropout=0.1,
                                 rng=np.random.default_rng(0))
        a_norm = normalize_adjacency(g.adjacency)
        with pytest.raises(InputError, match="features"):
            gcn_forward(params, a_norm, ad.Tape().leaf(g.features))
        untraced = gcn_forward(params, a_norm, ad.Tensor(g.features)).value
        assert untraced.tobytes() == gcn_forward(params, a_norm, g.features).value.tobytes()


class TestFullBatchStepMemory:
    @pytest.mark.parametrize("n,p,pairs", [(200, 0.02, 12_000), (300, 0.5, 300)],
                             ids=["pairs_dominate", "entries_dominate"])
    def test_step_memory_follows_nodes(self, n, p, pairs):
        # Far more pairs than graph entries, then far more graph entries
        # (45,000) than nodes. score_pairs and Csr.matmul_dense work in
        # slices of at most n pairs or n entries, so the bound has no pairs
        # x width or entries x width term: only pair-length vectors and
        # node-sized arrays. Gathering every entry's product row at once, or
        # scoring every pair in one product, peaked at 1.6x (pairs) and
        # 6.5x (entries) the bound.
        g = synth_graph(SyntheticGraphSpec("er", n, p=p))
        rng = np.random.default_rng(0)
        width = 32
        pos, neg = rng.integers(0, g.num_nodes, (2, pairs, 2))
        a_norm = normalize_adjacency(g.adjacency)
        params = init_gcn_params(g.features.shape[1], hidden=width, layers=2, dropout=0.1,
                                 rng=rng)
        state = ad.AdamState()

        def step():
            return gnn._train_batch(params, a_norm, g.features, pos, neg, state,
                                    stream_rng(0, "dropout"))

        step()  # Adam's moments and the propagation plan exist from here on
        tracemalloc.start()
        try:
            assert np.isfinite(step())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        node_cells = g.num_nodes * max(width, g.features.shape[1])
        assert peak < 8 * (32 * pairs + 24 * node_cells)


class TestScoring:
    def test_zero_row_gives_half_probability(self):
        h = np.zeros((2, 4))
        h[1] = 1.0
        assert score_pairs(h, [(0, 1)]).value[0] == 0.0

    def test_unit_vectors_give_one(self):
        h = np.zeros((2, 4))
        h[0, 0] = h[1, 0] = 1.0
        assert score_pairs(h, [(0, 1)]).value[0] == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        h = rng.standard_normal((6, 4))
        pairs = rng.integers(0, 6, size=(10, 2))
        assert np.array_equal(score_pairs(h, pairs).value,
                              score_pairs(h, pairs[:, ::-1]).value)

    def test_score_pairs_matches_row_dot_products(self):
        rng = np.random.default_rng(4)
        h = rng.standard_normal((5, 3))
        pairs = np.array([[0, 1], [2, 4], [3, 3]])
        out = score_pairs(h, pairs).value
        for i, (u, v) in enumerate(pairs):
            assert out[i] == pytest.approx(h[u] @ h[v])

    @pytest.mark.parametrize("count", [0, 3, 7, 14, 23])
    def test_sliced_forward_matches_one_product(self, count):
        # 7 embeddings score 7 pairs per slice: none, part of one slice,
        # exactly one, exactly two, and a partial last slice.
        rng = np.random.default_rng(5)
        h = rng.standard_normal((7, 32))
        pairs = rng.integers(0, 7, size=(count, 2))
        want = (h[pairs[:, 0]] * h[pairs[:, 1]]).sum(axis=1)
        assert score_pairs(h, pairs).value.tobytes() == want.tobytes()

    def test_out_of_range_pair_rejected(self):
        with pytest.raises(InputError):
            score_pairs(np.zeros((2, 3)), [(0, 2)])


class TestLpLoss:
    def test_confident_scores_drive_loss_to_zero(self):
        loss = lp_loss(np.array([30.0]), np.array([-30.0]))
        assert loss.item() < 1e-9

    def test_all_zero_logits_give_ln2(self):
        loss = lp_loss(np.zeros(4), np.zeros(6))
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_hand_computed_mean(self):
        expected = (math.log(1 + math.exp(-0.3)) + math.log(1 + math.exp(-0.2))) / 2
        loss = lp_loss(np.array([0.3]), np.array([-0.2]))
        assert loss.item() == pytest.approx(expected, abs=1e-12)

    def test_single_side_allowed_but_not_both_empty(self):
        assert lp_loss(np.array([1.0]), np.empty(0)).item() > 0
        with pytest.raises(InputError):
            lp_loss(np.empty(0), np.empty(0))

    def test_non_negative(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            loss = lp_loss(rng.standard_normal(5), rng.standard_normal(5))
            assert loss.item() >= 0.0


def hits_oracle(pos, neg, k):
    ranked = sorted(neg, reverse=True)
    threshold = ranked[k - 1]
    return sum(1 for p in pos if p > threshold) / len(pos)


class TestHits:
    def test_perfect_separation(self):
        assert hits_at_k([5.0, 6.0], [1.0, 2.0, 3.0], 2) == 1.0

    def test_worked_example(self):
        assert hits_at_k([0.95, 0.65], [0.9, 0.8, 0.7, 0.6], 3) == 0.5

    def test_tie_is_not_a_hit(self):
        assert hits_at_k([0.7], [0.9, 0.8, 0.7, 0.6], 3) == 0.0

    def test_too_few_negatives(self):
        with pytest.raises(InputError):
            hits_at_k([1.0], [0.5], 2)

    def test_against_oracle_random_sets(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            npos = int(rng.integers(1, 20))
            nneg = int(rng.integers(1, 40))
            k = int(rng.integers(1, nneg + 1))
            pos = rng.standard_normal(npos)
            neg = rng.standard_normal(nneg)
            assert hits_at_k(pos, neg, k) == pytest.approx(
                hits_oracle(pos.tolist(), neg.tolist(), k)
            )


class TestPretrain:
    def make_split(self):
        g = sbm_graph([50, 50], 0.5, 0.01, seed=12)
        return g, generate_split(g, SplitSpec("CN", "backward", 2, 1, seed=5))

    def test_patience_zero_runs_one_epoch(self):
        g, split = self.make_split()
        cfg = TrainConfig(epochs=50, patience=0, lr=1e-3, seed=0, eval_k=5)
        result = pretrain_gnn(split.observed_graph, split, cfg, hidden=8, layers=2)
        assert len(result.trace) == 1

    def test_determinism(self):
        g, split = self.make_split()
        cfg = TrainConfig(epochs=5, patience=5, lr=1e-3, seed=3, eval_k=5)
        a = pretrain_gnn(split.observed_graph, split, cfg, hidden=8, layers=2)
        b = pretrain_gnn(split.observed_graph, split, cfg, hidden=8, layers=2)
        for wa, wb in zip(a.params.weights, b.params.weights):
            assert np.array_equal(wa, wb)
        assert a.best_valid == b.best_valid

    def test_sbm_training_beats_initialization(self):
        from counterlink.rng import stream_rng

        g = sbm_graph([50, 50], 0.5, 0.01, seed=12)
        split = generate_split(g, SplitSpec("CN", "backward", 2, 1, neg_ratio=2, seed=5))
        obs = split.observed_graph
        cfg = TrainConfig(epochs=60, patience=60, lr=1e-2, dropout=0.0, seed=1, eval_k=20)
        init_params = init_gcn_params(
            obs.features.shape[1], hidden=16, layers=2, dropout=0.0,
            rng=stream_rng(1, "init"),
        )
        a_norm = normalize_adjacency(obs.adjacency)
        before = evaluate_hits(
            init_params, a_norm, obs.features, split.valid_pos, split.valid_neg, 20
        )
        result = pretrain_gnn(obs, split, cfg, hidden=16, layers=2)
        assert result.best_valid > before

    def test_scores_on_the_given_eval_adjacency(self):
        g, split = self.make_split()
        cfg = TrainConfig(epochs=4, patience=4, lr=1e-2, seed=3, eval_k=5)
        full = normalize_adjacency(g.adjacency)
        result = pretrain_gnn(split.observed_graph, split, cfg, hidden=8, layers=2,
                              eval_norm=full)

        def hits(bucket):
            return evaluate_hits(result.params, full, g.features, split.pos(bucket),
                                 split.neg(bucket), 5)

        assert result.best_valid == hits("valid")
        assert result.test_hits == hits("test")

    def test_gradient_steps_never_read_valid_or_test_positives(self, monkeypatch):
        # Gradient-phase positives must come from train_pos only; negatives are
        # sampled from the observed graph's non-edges without consulting the
        # held-out sets (a fresh negative may coincide with an unseen held-out
        # pair, which is the standard protocol and is not a read).
        g, split = self.make_split()
        train = {tuple(e) for e in split.train_pos.tolist()}
        held = {tuple(e) for e in split.valid_pos.tolist()} | {
            tuple(e) for e in split.test_pos.tolist()
        }
        seen_pos, seen_neg = [], []
        step = gnn._train_batch

        def audited(params, a_norm, x, pos, neg, state, rng):
            seen_pos.extend(map(tuple, pos.tolist()))
            seen_neg.extend(map(tuple, neg.tolist()))
            return step(params, a_norm, x, pos, neg, state, rng)

        monkeypatch.setattr(gnn, "_train_batch", audited)
        cfg = TrainConfig(epochs=3, patience=3, lr=1e-3, seed=2, eval_k=5)
        pretrain_gnn(split.observed_graph, split, cfg, hidden=8, layers=2)
        assert seen_pos and set(seen_pos) <= train
        assert not (set(seen_pos) & held)
        obs = split.observed_graph
        assert all(not obs.has_edge(u, v) for u, v in seen_neg)
