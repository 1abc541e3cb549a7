import numpy as np
import pytest

from counterlink import autodiff as ad
from counterlink import cotrain, graphs
from counterlink.cotrain import (
    CotrainConfig,
    LossBundle,
    ablation_run,
    cotrain_losses,
    flex_objective,
    flex_tune,
    gen_loss,
    ggm_step,
    gnn_step,
    predictor_loss,
    resolve_tau,
)
from counterlink.errors import ConfigError, InputError
from counterlink.generator import GgmTrainConfig, NoiseSpec, first_draw_logits, pretrain_ggm
from counterlink.gnn import (TrainConfig, evaluate_hits, gcn_forward, init_gcn_params,
                             normalize_adjacency, pretrain_gnn, score_pairs)
from counterlink.graphs import Edge, Graph, NEGATIVE, POSITIVE, extract_for_links, make_batch
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


def pipeline_fixture(seed=5):
    g = sbm_graph([20, 20], 0.4, 0.05, seed=seed)
    split = generate_split(g, SplitSpec("CN", "backward", 2, 1, seed=seed))
    obs = split.observed_graph
    gnn = pretrain_gnn(
        obs, split, TrainConfig(epochs=8, patience=8, lr=1e-2, dropout=0.0,
                                seed=seed, eval_k=3),
        hidden=8, layers=2,
    ).params
    spec = NoiseSpec(noise_dim=3, num_psi=2)
    ggm = pretrain_ggm(
        obs, split, GgmTrainConfig(epochs=8, patience=8, lr=1e-2, batch_size=0,
                                   seed=seed),
        spec,
    ).params
    return g, split, obs, gnn, ggm, spec


class TestGenLoss:
    def test_penalty_vanishes_at_target(self):
        assert gen_loss(1.25, 3.0, 3.0).item() == 1.25

    def test_quadratic_symmetry(self):
        up = gen_loss(0.0, 3.5, 3.0).item()
        down = gen_loss(0.0, 2.5, 3.0).item()
        assert up == down == -0.25

    def test_closed_form(self):
        assert gen_loss(0.7, 2.0, 0.0).item() == pytest.approx(0.7 - 4.0)


class TestObjective:
    def test_weighted_sum(self):
        assert flex_objective(0.5, 0.2, 1.0).item() == pytest.approx(0.7)

    def test_alpha_zero_reduces_to_gen(self):
        assert flex_objective(123.0, 0.2, 0.0).item() == pytest.approx(0.2)

    def test_exact_decomposition_no_hidden_terms(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b, alpha = rng.standard_normal(3)
            alpha = abs(alpha)
            assert flex_objective(a, b, alpha).item() == alpha * a + b


class TestConfig:
    def test_validation(self):
        with pytest.raises(InputError):
            CotrainConfig(alpha=-0.1)
        with pytest.raises(InputError):
            CotrainConfig(gamma=1.5)
        with pytest.raises(ConfigError):
            CotrainConfig(update_rule="sideways")
        with pytest.raises(InputError):
            CotrainConfig(patience=10, epochs=5)

    @pytest.mark.parametrize("config", [CotrainConfig, GgmTrainConfig])
    @pytest.mark.parametrize("field,value", [("hop_k", 0), ("max_nodes", 1)])
    def test_extraction_values_rejected_at_construction(self, config, field, value):
        with pytest.raises(InputError, match=field):
            config(**{field: value})

    def test_alpha_zero_allowed_for_ablation(self):
        assert CotrainConfig(alpha=0.0).alpha == 0.0


class TestSteps:
    def make_bundle(self, cfg, gnn, ggm, split, obs, seed=17):
        links = [Edge(int(u), int(v), POSITIVE) for u, v in split.train_pos[:6]] + [
            Edge(int(u), int(v), NEGATIVE) for u, v in split.train_neg[:6]
        ]
        subs = extract_for_links(obs, links, k=1, max_nodes=30, seed=1)
        batch = make_batch(subs)
        return batch, cotrain_losses(
            gnn, ggm, batch, cfg, tau=2.0, rng=stream_rng(seed, "probe"),
        )

    def predictor_step_loss(self, cfg, gnn, ggm, batch, seed=17):
        """flex_tune's predictor update up to gnn_step: (lp, mean CN, leaves)."""
        leaves = ad.Tape().leaves(gnn.named())
        logits = first_draw_logits(ggm, batch, cfg.noise, stream_rng(seed, "probe"))
        lp, mean_cn = predictor_loss(gnn, batch, logits, cfg.gamma, leaves)
        return lp, mean_cn, leaves

    def test_ggm_ascent_does_not_decrease_gen(self):
        g, split, obs, gnn, ggm, spec = pipeline_fixture()
        cfg = CotrainConfig(alpha=0.0, gamma=0.5, noise=spec, epochs=1, patience=1)
        batch, bundle = self.make_bundle(cfg, gnn, ggm, split, obs)
        before = bundle.gen.item()
        state = ad.AdamState(lr=1e-8)
        ggm_step(bundle, state, ggm, cfg)
        _, after_bundle = self.make_bundle(cfg, gnn, ggm, split, obs)
        assert after_bundle.gen.item() >= before - 1e-12

    def test_literal_minmax_ascent_does_not_decrease_objective(self):
        g, split, obs, gnn, ggm, spec = pipeline_fixture()
        cfg = CotrainConfig(alpha=1.05, gamma=0.5, noise=spec, epochs=1, patience=1,
                            update_rule="literal_minmax")
        batch, bundle = self.make_bundle(cfg, gnn, ggm, split, obs)
        before = flex_objective(bundle.lp, bundle.gen, cfg.alpha).item()
        ggm_step(bundle, ad.AdamState(lr=1e-8), ggm, cfg)
        _, after = self.make_bundle(cfg, gnn, ggm, split, obs)
        assert flex_objective(after.lp, after.gen, cfg.alpha).item() >= before - 1e-12

    def test_gnn_step_never_touches_ggm_and_vice_versa(self):
        g, split, obs, gnn, ggm, spec = pipeline_fixture()
        cfg = CotrainConfig(alpha=1.0, gamma=0.5, noise=spec, epochs=1, patience=1)
        batch, bundle = self.make_bundle(cfg, gnn, ggm, split, obs)
        ggm_before = {k: v.copy() for k, v in ggm.named().items()}
        gnn_step(bundle.lp, bundle.gnn_leaves, ad.AdamState(lr=1e-2), gnn, cfg.alpha)
        for k, v in ggm.named().items():
            assert np.array_equal(v, ggm_before[k]), k

        batch, bundle = self.make_bundle(cfg, gnn, ggm, split, obs)
        gnn_before = {k: v.copy() for k, v in gnn.named().items()}
        ggm_step(bundle, ad.AdamState(lr=1e-2), ggm, cfg)
        for k, v in gnn.named().items():
            assert np.array_equal(v, gnn_before[k]), k

    def test_predictor_step_matches_joint_tape(self):
        g, split, obs, gnn, ggm, spec = pipeline_fixture()
        cfg = CotrainConfig(alpha=1.05, gamma=0.5, noise=spec, epochs=1, patience=1)
        batch, joint = self.make_bundle(cfg, gnn, ggm, split, obs)
        lp, mean_cn, leaves = self.predictor_step_loss(cfg, gnn, ggm, batch)
        assert np.array_equal(lp.value, joint.lp.value)
        assert mean_cn == joint.mean_generated_cn

        def grads(lp, leaves):
            return ad.backward(ad.mul(lp, ad.Tensor(cfg.alpha))).named(leaves)

        want, got = grads(joint.lp, joint.gnn_leaves), grads(lp, leaves)
        assert want.keys() == got.keys()
        for k in want:
            assert np.array_equal(got[k], want[k]), k

    def test_predictor_step_tape_holds_no_generator_record(self):
        g, split, obs, gnn, ggm, spec = pipeline_fixture()
        cfg = CotrainConfig(alpha=1.05, gamma=0.5, noise=spec, epochs=1, patience=1)
        batch, joint = self.make_bundle(cfg, gnn, ggm, split, obs)
        lp, _, leaves = self.predictor_step_loss(cfg, gnn, ggm, batch)
        for tape, gnn_leaves, pure in ((lp.tape, leaves, True),
                                       (joint.lp.tape, joint.gnn_leaves, False)):
            # Seeded with the predictor's leaves only, every traced input of
            # every record must be a predictor leaf or a record made from one.
            derived = {t.node_id for t in gnn_leaves.values()}
            ok = True
            for out_id, in_ids, _ in tape._records:
                ok &= all(i is None or i in derived for i in in_ids)
                derived.add(out_id)
            assert ok == pure
        assert len(lp.tape._records) < len(joint.lp.tape._records)

    def test_alpha_zero_freezes_gnn(self):
        g, split, obs, gnn, ggm, spec = pipeline_fixture()
        cfg = CotrainConfig(alpha=0.0, gamma=0.5, noise=spec, epochs=1, patience=1)
        batch, bundle = self.make_bundle(cfg, gnn, ggm, split, obs)
        before = {k: v.copy() for k, v in gnn.named().items()}
        gnn_step(bundle.lp, bundle.gnn_leaves, ad.AdamState(lr=1e-2), gnn, 0.0)
        for k, v in gnn.named().items():
            assert np.array_equal(v, before[k]), k

    def test_penalty_pull_on_quadratic_toy(self):
        # theta parameterizes a stand-in divergence kl = theta^2; plain
        # gradient ascent on -(kl - tau)^2 drives |kl - tau| down monotonically
        theta = np.array([1.0])
        tau = 4.0
        lr = 0.01
        gaps = []
        for _ in range(300):
            tape = ad.Tape()
            leaf = tape.leaf(theta)
            kl = ad.square(leaf)
            descend = ad.neg(gen_loss(ad.Tensor(0.0), kl, tau))
            theta -= lr * ad.backward(descend).of(leaf)
            gaps.append(abs(float(theta[0]) ** 2 - tau))
        assert gaps[-1] < 0.05
        assert all(b <= a + 1e-9 for a, b in zip(gaps, gaps[1:]))


class TestFlexTune:
    def test_determinism_bit_identical(self):
        g, split, obs, gnn, ggm, spec = pipeline_fixture()
        cfg = CotrainConfig(alpha=1.05, gamma=0.5, lr_gnn=1e-3, lr_ggm=1e-3,
                            epochs=2, patience=2, batch_size=16, noise=spec,
                            eval_k=3, seed=9)
        a = flex_tune(gnn, ggm, obs, split, cfg)
        b = flex_tune(gnn, ggm, obs, split, cfg)
        for k in a.gnn.named():
            assert np.array_equal(a.gnn.named()[k], b.gnn.named()[k])
        for k in a.ggm.named():
            assert np.array_equal(a.ggm.named()[k], b.ggm.named()[k])
        assert a.best_valid == b.best_valid

    def test_epoch_zero_candidate_guards_against_degradation(self):
        g, split, obs, gnn, ggm, spec = pipeline_fixture()
        # huge lr wrecks the model; selection must fall back to epoch 0
        cfg = CotrainConfig(alpha=1.05, gamma=0.5, lr_gnn=10.0, lr_ggm=10.0,
                            epochs=2, patience=2, batch_size=16, noise=spec,
                            eval_k=3, seed=9)
        out = flex_tune(gnn, ggm, obs, split, cfg)
        if out.best_epoch == 0:
            for k in out.gnn.named():
                assert np.array_equal(out.gnn.named()[k], gnn.named()[k])

    def test_trace_has_one_row_per_epoch(self):
        g, split, obs, gnn, ggm, spec = pipeline_fixture()
        cfg = CotrainConfig(alpha=1.05, gamma=0.5, lr_gnn=1e-4, lr_ggm=1e-4,
                            epochs=3, patience=3, batch_size=16, noise=spec,
                            eval_k=3, seed=9)
        out = flex_tune(gnn, ggm, obs, split, cfg)
        assert [row["epoch"] for row in out.trace] == [0, 1, 2, 3]
        for row in out.trace[1:]:
            for key in ("lp_loss", "sivi_loss", "kl_estimate", "penalty",
                        "mean_generated_cn", "valid_hits", "seconds"):
                assert np.isfinite(row[key]), key

    def test_kl_estimate_moves_toward_tau(self):
        g, split, obs, gnn, ggm, spec = pipeline_fixture(seed=6)
        cfg = CotrainConfig(alpha=0.0, gamma=0.5, lr_gnn=0.0, lr_ggm=1e-2,
                            epochs=6, patience=6, batch_size=0, noise=spec,
                            eval_k=3, seed=2, tau_offset=2.0)
        out = flex_tune(gnn, ggm, obs, split, cfg)
        gaps = [abs(row["kl_estimate"] - out.tau) for row in out.trace[1:]]
        assert gaps[-1] < gaps[0]

    def test_batch_adjacency_normalized_once_per_batch(self, monkeypatch):
        g, split, obs, gnn, ggm, spec = pipeline_fixture()
        cfg = CotrainConfig(alpha=1.05, gamma=0.5, lr_gnn=1e-3, lr_ggm=1e-3,
                            epochs=1, patience=1, batch_size=16, noise=spec,
                            eval_k=3, seed=9)

        def outputs(result):
            named = {**result.gnn.named(), **result.ggm.named()}
            rows = [{k: v for k, v in row.items() if k != "seconds"}
                    for row in result.trace]
            return [named[k].tobytes() for k in sorted(named)] + [repr(rows)]

        batches, normalized = [], []
        real_batch, real_norm = cotrain.make_batch, graphs.normalize_adjacency
        monkeypatch.setattr(cotrain, "make_batch",
                            lambda subs: batches.append(1) or real_batch(subs))
        monkeypatch.setattr(graphs, "normalize_adjacency",
                            lambda a: normalized.append(1) or real_norm(a))
        once = outputs(flex_tune(gnn, ggm, obs, split, cfg))
        # The tau probe batch plus every training batch; the predictor and
        # generator steps of a batch share its normalized adjacency.
        assert len(batches) > 2 and len(normalized) == len(batches)

        monkeypatch.setattr(graphs.LabeledSubgraphBatch, "normalized_adjacency",
                            lambda batch: real_norm(batch.block_diag_csr()))
        assert outputs(flex_tune(gnn, ggm, obs, split, cfg)) == once

    def test_reports_test_hits_paired_with_the_pretrained(self):
        g, split, obs, gnn, ggm, spec = pipeline_fixture()
        cfg = CotrainConfig(alpha=1.05, gamma=0.5, lr_gnn=1e-2, lr_ggm=1e-3,
                            epochs=2, patience=2, batch_size=16, noise=spec,
                            eval_k=3, seed=9)
        full = normalize_adjacency(g.adjacency)
        out = flex_tune(gnn, ggm, obs, split, cfg, eval_norm=full)

        def hits(params, bucket="test"):
            return evaluate_hits(params, full, g.features, split.pos(bucket),
                                 split.neg(bucket), 3)

        assert out.best_valid == hits(out.gnn, "valid")
        assert out.selection() == {
            "best_epoch": out.best_epoch, "selected_pretrained": out.best_epoch == 0,
            "test_hits": hits(out.gnn), "base_test_hits": hits(gnn),
            "test_delta": hits(out.gnn) - hits(gnn),
        }

    def test_resolve_tau_prefers_explicit(self):
        g, split, obs, gnn, ggm, spec = pipeline_fixture()
        cfg = CotrainConfig(tau=7.5, noise=spec)
        assert resolve_tau(ggm, None, cfg) == 7.5


class TestAblation:
    def test_unknown_switch_rejected(self):
        g, split, obs, gnn, ggm, spec = pipeline_fixture()
        cfg = CotrainConfig(noise=spec, epochs=1, patience=1)
        with pytest.raises(ConfigError):
            ablation_run(gnn, ggm, obs, split, cfg, switch="no_everything")

    def test_none_switch_equals_flex_tune_bit_identical(self):
        g, split, obs, gnn, ggm, spec = pipeline_fixture()
        cfg = CotrainConfig(alpha=1.05, gamma=0.5, lr_gnn=1e-3, lr_ggm=1e-3,
                            epochs=2, patience=2, batch_size=16, noise=spec,
                            eval_k=3, seed=4)
        direct = flex_tune(gnn, ggm, obs, split, cfg)
        viaswitch = ablation_run(gnn, ggm, obs, split, cfg, switch=None)
        for k in direct.gnn.named():
            assert np.array_equal(direct.gnn.named()[k], viaswitch.gnn.named()[k])
        assert viaswitch.test_hits == direct.test_hits

    def test_no_lp_loss_freezes_gnn(self):
        g, split, obs, gnn, ggm, spec = pipeline_fixture()
        cfg = CotrainConfig(alpha=1.05, gamma=0.5, lr_gnn=1e-3, lr_ggm=1e-3,
                            epochs=1, patience=1, batch_size=16, noise=spec,
                            eval_k=3, seed=4)
        out = ablation_run(gnn, ggm, obs, split, cfg, switch="no_lp_loss")
        # best checkpoint may be epoch 0 either way; compare the raw effect:
        # with alpha=0 the predictor gradient is exactly zero every batch
        for k in out.gnn.named():
            assert np.array_equal(out.gnn.named()[k], gnn.named()[k]), k

    def test_no_sivi_collapses_mixing(self):
        g, split, obs, gnn, ggm, spec = pipeline_fixture()
        cfg = CotrainConfig(alpha=1.05, gamma=0.5, lr_gnn=1e-3, lr_ggm=1e-3,
                            epochs=1, patience=1, batch_size=16, noise=spec,
                            eval_k=3, seed=4)
        out = ablation_run(gnn, ggm, obs, split, cfg, switch="no_sivi")
        assert out.trace[-1]["epoch"] >= 0  # ran to completion


class TestBlockPredictorMatchesFullGraph:
    def test_real_blocks_score_as_the_full_graph_without_the_link(self, monkeypatch):
        # Logits of +-40 turn into kept weights of exactly 1 and 0, so at gamma
        # 0.5 the predictor propagates over each real block. With hop_k =
        # layers + 1 a block holds every node within `layers` hops of an
        # endpoint and every degree among them, so its target logit is the
        # full-graph GCN's score with the link's edge removed.
        layers = 2
        g = sbm_graph([15, 15, 15], 0.15, 0.01, seed=4)
        g = Graph.from_edge_array(g.num_nodes, g.edges(),
                                  np.random.default_rng(4).standard_normal((g.num_nodes, 3)))
        params = init_gcn_params(3, hidden=5, layers=layers, dropout=0.0,
                                 rng=np.random.default_rng(6))
        for b in params.biases:
            b[:] = np.random.default_rng(7).standard_normal(b.shape) * 0.3
        edges = g.edges()
        picked = edges[:: max(1, len(edges) // 12)]
        subs = extract_for_links(g, [Edge(int(u), int(v), POSITIVE) for u, v in picked],
                                 k=layers + 1, max_nodes=g.num_nodes)
        batch = make_batch(subs)
        assert min(batch.block_sizes) < g.num_nodes  # blocks are not the whole graph
        logits = np.concatenate([np.where(a > 0, 40.0, -40.0).ravel()
                                 for a in batch.block_adjacencies()])
        scored = []
        lp_loss = cotrain.lp_loss
        monkeypatch.setattr(cotrain, "lp_loss",
                            lambda pos, neg: scored.append(pos.value) or lp_loss(pos, neg))
        predictor_loss(params, batch, ad.Tensor(logits), 0.5)
        for (u, v), got in zip(picked, scored[0]):
            rest = edges[(edges[:, 0] != u) | (edges[:, 1] != v)]
            without = Graph.from_edge_array(g.num_nodes, rest, g.features)
            h = gcn_forward(params, normalize_adjacency(without.adjacency), g.features)
            want = score_pairs(h, [[u, v]]).value[0]
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
