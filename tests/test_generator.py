import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from counterlink import autodiff as ad
from counterlink.errors import ConfigError, InputError, ShapeError, ValidationError
from counterlink.generator import (
    GgmTrainConfig,
    NoiseSpec,
    SiviParams,
    decode_logits,
    decode_node_aware,
    dump_samples,
    encode_semi_implicit,
    first_draw_logits,
    generate,
    init_sivi_params,
    kl_gaussian,
    load_samples,
    pretrain_ggm,
    recon_loss,
    reparameterize,
    sivi_elbo,
    threshold_edges,
)
from counterlink.gnn import normalize_adjacency
from counterlink.graphs import (Csr, Edge, Graph, LabeledSubgraph, common_neighbors,
                               extract_for_links, make_batch)
from counterlink.rng import stream_rng
from counterlink.splits import SplitSpec, generate_split

from vgae_reference import ReferenceVgae, normalize_dense


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


def small_batch(seed=0, n_links=3, zero_weights=False):
    g = sbm_graph([12, 12], 0.4, 0.08, seed=seed)
    edges = g.edges()
    links = [Edge(int(u), int(v)) for u, v in edges[:n_links]]
    subs = extract_for_links(g, links, k=1, max_nodes=10, seed=seed)
    batch = make_batch(subs)
    params = init_sivi_params(
        g.features.shape[1], hidden=8, zdim=4, noise_dim=3,
        rng=np.random.default_rng(seed),
    )
    if zero_weights:
        for arr in params.named().values():
            arr[:] = 0.0
    return g, batch, params


def adjacency_batch(adjs):
    """A batch of blocks with these adjacencies, each on its own rows of one
    feature matrix."""
    features = np.eye(sum(a.shape[0] for a in adjs))
    blocks, start = [], 0
    for a in adjs:
        m = a.shape[0]
        blocks.append(LabeledSubgraph(
            node_map=np.arange(start, start + m), local_adjacency=a,
            graph_features=features, labels=(np.arange(m) < 2).astype(np.float64)))
        start += m
    return make_batch(blocks)


class TestNoiseSpec:
    def test_plain_variational_reduction_allowed(self):
        spec = NoiseSpec(noise_dim=0, num_psi=1)
        assert spec.noise_dim == 0

    def test_degenerate_mixing_rejected(self):
        with pytest.raises(ConfigError):
            NoiseSpec(noise_dim=0, num_psi=2)

    def test_bad_counts(self):
        with pytest.raises(InputError):
            NoiseSpec(num_psi=0)


class TestEncode:
    def test_zero_weights_zero_moments(self):
        _, batch, params = small_batch(zero_weights=True)
        spec = NoiseSpec(noise_dim=3, num_psi=2)
        moments = encode_semi_implicit(params, batch, spec, stream_rng(0, "noise"))
        for mu, lv in moments:
            assert np.array_equal(mu.value, np.zeros_like(mu.value))
            assert np.array_equal(lv.value, np.zeros_like(lv.value))

    def test_one_moment_pair_per_draw(self):
        _, batch, params = small_batch()
        spec = NoiseSpec(noise_dim=3, num_psi=4)
        moments = encode_semi_implicit(params, batch, spec, stream_rng(0, "noise"))
        assert len(moments) == 4
        for mu, lv in moments:
            assert mu.shape == lv.shape == (batch.total_nodes, params.zdim)

    def test_determinism(self):
        _, batch, params = small_batch()
        spec = NoiseSpec(noise_dim=3, num_psi=2)
        a = encode_semi_implicit(params, batch, spec, stream_rng(5, "noise"))
        b = encode_semi_implicit(params, batch, spec, stream_rng(5, "noise"))
        for (mu_a, lv_a), (mu_b, lv_b) in zip(a, b):
            assert np.array_equal(mu_a.value, mu_b.value)
            assert np.array_equal(lv_a.value, lv_b.value)
        # each draw injects its own noise
        assert not np.array_equal(a[0][0].value, a[1][0].value)

    @pytest.mark.parametrize("zero_noise", [False, True])
    def test_shared_input_matches_a_fresh_input_per_draw(self, zero_noise):
        # Each draw writes its noise into one shared input, and its backward
        # writes it back: moments and gradients must be the bytes a fresh
        # concatenation per draw gives, backward run twice included.
        import blocks_reference

        _, batch, params = small_batch(n_links=4)
        spec = NoiseSpec(noise_dim=3, num_psi=3, zero_noise=zero_noise)
        runs = []
        for encode in (encode_semi_implicit, blocks_reference.encode_semi_implicit):
            leaves = ad.Tape().leaves(params.named())
            moments = encode(params, batch, spec, stream_rng(3, "noise"), leaves=leaves)
            loss = ad.tsum(ad.concat([ad.tsum(ad.mul(t, t), axis=1)
                                      for pair in moments for t in pair]))
            runs.append([t.value.tobytes() for pair in moments for t in pair] + [
                g.tobytes() for _ in range(2)
                for g in ad.backward(loss, wrt=leaves).named(leaves).values()])
        assert runs[0] == runs[1]

    def test_noise_dim_mismatch_rejected(self):
        _, batch, params = small_batch()
        with pytest.raises(ConfigError):
            encode_semi_implicit(params, batch, NoiseSpec(noise_dim=5, num_psi=1),
                                 stream_rng(0, "noise"))


class TestZeroNoise:
    """NoiseSpec(zero_noise=True) feeds zero noise columns and draws none, so
    the no_sivi ablation's streams stay where sivi_elbo leaves them."""

    def test_encoder_leaves_the_rng_where_it_found_it(self):
        _, batch, params = small_batch()
        rng = stream_rng(8, "noise")
        before = rng.bit_generator.state
        spec = NoiseSpec(noise_dim=3, num_psi=2, zero_noise=True)
        first, second = encode_semi_implicit(params, batch, spec, rng)
        assert rng.bit_generator.state == before
        assert first[0].value.tobytes() == second[0].value.tobytes()

    def test_first_draw_logits_draws_only_the_latents(self):
        _, batch, params = small_batch()
        spec = NoiseSpec(noise_dim=3, num_psi=3, zero_noise=True)
        rng, latents = stream_rng(8, "noise"), stream_rng(8, "noise")
        first_draw_logits(params, batch, spec, rng)
        latents.standard_normal((spec.num_psi, batch.total_nodes, params.zdim))
        assert rng.bit_generator.state == latents.bit_generator.state


class TestReparameterize:
    def test_clamped_floor_collapses_to_mu(self):
        _, batch, params = small_batch()
        spec = NoiseSpec(noise_dim=3, num_psi=1)
        [(mu, _)] = encode_semi_implicit(params, batch, spec, stream_rng(1, "noise"))
        # clamp floor is -10, so sigma = e^-5 and h stays within a whisker of mu
        clamped = ad.clip(ad.Tensor(np.full(mu.shape, -1e9)), -10.0, 10.0)
        hs = reparameterize([(mu, clamped)], stream_rng(2, "reparam"))
        assert np.max(np.abs(hs[0].value - mu.value)) < 0.05

    def test_standard_normal_when_mu_zero_sigma_one(self):
        mu = ad.Tensor(np.zeros((10_000, 1)))
        lv = ad.Tensor(np.zeros((10_000, 1)))
        hs = reparameterize([(mu, lv)], np.random.default_rng(3))
        assert abs(float(hs[0].value.mean())) < 0.05

    def test_gradient_wrt_mu_is_identity(self):
        tape = ad.Tape()
        mu = tape.leaf(np.zeros((4, 2)))
        lv = ad.Tensor(np.zeros((4, 2)))
        hs = reparameterize([(mu, lv)], np.random.default_rng(0))
        grads = ad.backward(ad.tsum(hs[0]))
        assert np.array_equal(grads.of(mu), np.ones((4, 2)))

    def test_one_draw_per_moment_pair_equals_block_by_block_draws(self):
        _, batch, params = small_batch(n_links=4)
        assert len(batch.block_sizes) > 1
        moments = encode_semi_implicit(params, batch, NoiseSpec(noise_dim=3, num_psi=2),
                                       stream_rng(1, "noise"))
        rng, rng_blocks = stream_rng(2, "reparam"), stream_rng(2, "reparam")
        hs = reparameterize(moments, rng)
        for (mu, lv), h in zip(moments, hs):
            eps = np.concatenate([rng_blocks.standard_normal((int(m), params.zdim))
                                  for m in batch.block_sizes], axis=0)
            want = mu.value + eps * np.exp(lv.value * 0.5)
            assert h.value.tobytes() == want.tobytes()
        assert rng.random() == rng_blocks.random()


class TestDecode:
    def test_zero_latents_give_half_probabilities(self):
        sample = decode_node_aware(np.zeros((5, 3)), adjacency_batch([np.zeros((5, 5))]))
        p = sample.edge_probs[0]
        off = ~np.eye(5, dtype=bool)
        assert np.all(p[off] == 0.5)
        assert np.all(np.diag(p) == 0.0)

    def test_cross_block_mass_never_materialized(self):
        sample = decode_node_aware(np.random.default_rng(0).standard_normal((7, 3)),
                                   adjacency_batch([np.zeros((3, 3)), np.zeros((4, 4))]))
        assert sample.edge_probs[0].shape == (3, 3)
        assert sample.edge_probs[1].shape == (4, 4)

    def test_symmetry_and_range(self):
        h = np.random.default_rng(1).standard_normal((6, 4))
        sample = decode_node_aware(h, adjacency_batch([np.zeros((6, 6))]))
        p = sample.edge_probs[0]
        assert np.allclose(p, p.T)
        assert p.min() >= 0.0 and p.max() <= 1.0

    def test_logits_match_probabilities(self):
        h = np.random.default_rng(2).standard_normal((5, 3))
        batch = adjacency_batch([np.zeros((5, 5))])
        logits = decode_logits(ad.Tensor(h), batch).value.reshape(5, 5)
        sample = decode_node_aware(h, batch)
        off = ~np.eye(5, dtype=bool)
        assert np.allclose(1 / (1 + np.exp(-logits[off])), sample.edge_probs[0][off])

    def test_size_mismatch(self):
        with pytest.raises(InputError):
            decode_logits(ad.Tensor(np.zeros((5, 2))),
                          adjacency_batch([np.zeros((3, 3))] * 2))
        with pytest.raises(InputError):
            decode_node_aware(np.zeros((5, 2)), adjacency_batch([np.zeros((3, 3))] * 2))

    def test_logits_below_exp_range_give_zero_without_a_warning(self):
        # The pair's logit is -900: exp(900) overflows to inf, and the
        # probability is exactly 0.0, which needs no warning.
        h = np.array([[30.0, 0.0], [-30.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sample = decode_node_aware(h, adjacency_batch([np.zeros((2, 2))]))
        assert sample.edge_probs[0].tolist() == [[0.0, 0.0], [0.0, 0.0]]

    def test_targets_and_labels_come_from_the_batch(self):
        _, batch, _ = small_batch(n_links=3)
        sample = decode_node_aware(np.zeros((batch.total_nodes, 2)), batch)
        assert all(b.target == (0, 1) for b in batch.blocks)
        assert np.array_equal(sample.link_labels, batch.batch_labels)
        assert np.array_equal(sample.block_sizes, batch.block_sizes)


class TestKl:
    def test_standard_normal_is_zero(self):
        assert kl_gaussian(np.zeros((4, 2)), np.zeros((4, 2))).item() == 0.0

    def test_unit_mean_closed_form(self):
        assert kl_gaussian(np.ones((3, 1)), np.zeros((3, 1))).item() == pytest.approx(0.5)

    def test_non_negative_on_random_inputs(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            mu = rng.standard_normal((5, 3))
            lv = rng.uniform(-3, 3, size=(5, 3))
            assert kl_gaussian(mu, lv).item() >= 0.0


class TestElbo:
    def test_confident_reconstruction_and_zero_kl_vanish(self):
        adj = np.array([[0.0, 1.0], [1.0, 0.0]])
        logits = ad.Tensor(np.array([0.0, 40.0, 40.0, 0.0]))
        assert recon_loss(logits, adjacency_batch([adj])).item() < 1e-12
        assert kl_gaussian(np.zeros((2, 2)), np.zeros((2, 2))).item() == 0.0

    def test_loss_decomposes_into_parts(self):
        _, batch, params = small_batch()
        spec = NoiseSpec(noise_dim=3, num_psi=2)
        res = sivi_elbo(params, batch, spec, stream_rng(7, "noise"))
        rng = stream_rng(7, "noise")
        hs = reparameterize(encode_semi_implicit(params, batch, spec, rng), rng)
        bce = np.mean([recon_loss(decode_logits(h, batch), batch).item() for h in hs])
        assert res.loss.item() == pytest.approx(bce + res.kl.item(), abs=1e-12)
        assert res.kl.item() >= 0.0

    def test_gradients_match_finite_differences(self):
        from test_autodiff import finite_diff, max_rel_err

        _, batch, params = small_batch()
        spec = NoiseSpec(noise_dim=3, num_psi=2)
        arrays = {k: v.copy() for k, v in params.named().items()}

        def run(arrs, collect=False):
            p = SiviParams(
                w_in=arrs["ggm.w_in"], b_in=arrs["ggm.b_in"],
                w_mu=arrs["ggm.w_mu"], b_mu=arrs["ggm.b_mu"],
                w_lv=arrs["ggm.w_lv"], b_lv=arrs["ggm.b_lv"],
                hidden=8, zdim=4, noise_dim=3,
            )
            tape = ad.Tape()
            leaves = tape.leaves(arrs)
            res = sivi_elbo(p, batch, spec, stream_rng(11, "noise"), leaves=leaves)
            if collect:
                return ad.backward(res.loss).named(leaves)
            return res.loss.item()

        analytic = run(arrays, collect=True)
        numeric = finite_diff(lambda a: run(a), arrays)
        assert max_rel_err(analytic, numeric) < 1e-4

    def test_single_draw_matches_reference_vgae_one_step(self):
        g, batch, _ = small_batch()
        params = init_sivi_params(g.features.shape[1], hidden=8, zdim=4, noise_dim=0,
                                  rng=np.random.default_rng(9))
        spec = NoiseSpec(noise_dim=0, num_psi=1)
        res = sivi_elbo(params, batch, spec, stream_rng(13, "noise"))

        ref = ReferenceVgae({k.split(".")[1]: v for k, v in params.named().items()})
        x_in = np.concatenate(
            [batch.stacked_features(), batch.stacked_labels().reshape(-1, 1)], axis=1
        )
        a_norm = normalize_dense(batch.to_dense_adjacency())
        loss, _ = ref.forward(a_norm, x_in, batch.block_sizes,
                              batch.block_adjacencies(), stream_rng(13, "noise"))
        assert res.loss.item() == pytest.approx(loss, abs=1e-10)


class TestFirstDrawLogits:
    @pytest.mark.parametrize("noise_dim,num_psi,zero_labels,zero_noise", [
        (3, 3, False, False),
        (3, 1, False, False),
        (0, 1, False, False),
        (3, 3, False, True),
        (3, 3, True, False),
    ])
    def test_equals_untaped_elbo_first_draw(self, noise_dim, num_psi, zero_labels,
                                            zero_noise):
        g, batch, _ = small_batch(seed=2, n_links=4)
        if zero_labels:  # the no_seal_labels ablation's input
            batch = make_batch([dataclasses.replace(s, labels=np.zeros_like(s.labels))
                                for s in batch.blocks])
        params = init_sivi_params(g.features.shape[1], hidden=8, zdim=4,
                                  noise_dim=noise_dim, rng=np.random.default_rng(5))
        spec = NoiseSpec(noise_dim=noise_dim, num_psi=num_psi, zero_noise=zero_noise)
        rng_elbo, rng_first = stream_rng(21, "noise"), stream_rng(21, "noise")
        want = sivi_elbo(params, batch, spec, rng_elbo, leaves=None).logits
        got = first_draw_logits(params, batch, spec, rng_first)
        assert got.tape is None
        assert got.shape == (int((batch.block_sizes ** 2).sum()),)
        assert got.value.tobytes() == want.value.tobytes()
        # Same draws in the same order: both streams end at the same place.
        assert rng_first.random() == rng_elbo.random()

    def test_encodes_only_the_first_draw(self, monkeypatch):
        g, batch, _ = small_batch(seed=2, n_links=4)
        params = init_sivi_params(g.features.shape[1], hidden=8, zdim=4, noise_dim=3,
                                  rng=np.random.default_rng(5))
        calls = []
        matmul_dense = Csr.matmul_dense
        monkeypatch.setattr(Csr, "matmul_dense",
                            lambda *a: calls.append(1) or matmul_dense(*a))
        first_draw_logits(params, batch, NoiseSpec(noise_dim=3, num_psi=3),
                          stream_rng(21, "noise"))
        assert len(calls) == 1  # one encoder propagation, not one per draw

    def test_noise_width_that_does_not_fit_w_in_fails_before_allocating(self):
        g, batch, _ = small_batch(seed=2, n_links=4)
        params = init_sivi_params(g.features.shape[1], hidden=8, zdim=4, noise_dim=3,
                                  rng=np.random.default_rng(5))
        params.noise_dim = 10**15  # [features | label | noise] would not fit in memory
        with pytest.raises(ShapeError, match="matmul"):
            first_draw_logits(params, batch, NoiseSpec(noise_dim=10**15, num_psi=1),
                              stream_rng(21, "noise"))


class TestThreshold:
    def make_sample(self):
        h = np.random.default_rng(5).standard_normal((8, 3))
        return decode_node_aware(h, adjacency_batch([np.zeros((4, 4))] * 2))

    def test_keeps_above_drops_below(self):
        p = np.zeros((2, 2))
        p[0, 1] = p[1, 0] = 0.8
        sample = dataclasses.replace(self.make_sample(), edge_probs=[p],
                                     block_sizes=np.array([2]),
                                     link_labels=np.ones(1))
        kept = threshold_edges(sample, 0.75)
        assert kept.edge_probs[0][0, 1] == 0.8
        p2 = p * 0.625  # 0.5 everywhere it was 0.8
        sample2 = dataclasses.replace(sample, edge_probs=[p2])
        dropped = threshold_edges(sample2, 0.75)
        assert dropped.edge_probs[0][0, 1] == 0.0

    def test_gamma_zero_is_identity(self):
        sample = self.make_sample()
        out = threshold_edges(sample, 0.0)
        for a, b in zip(out.edge_probs, sample.edge_probs):
            assert np.array_equal(a, b)

    def test_idempotent(self):
        sample = self.make_sample()
        once = threshold_edges(sample, 0.6)
        twice = threshold_edges(once, 0.6)
        for a, b in zip(once.edge_probs, twice.edge_probs):
            assert np.array_equal(a, b)
        for a, b in zip(once.thresholded_adj, twice.thresholded_adj):
            assert np.array_equal(a, b)

    def test_monotone_in_gamma(self):
        sample = self.make_sample()
        counts = [threshold_edges(sample, gm).edge_count()
                  for gm in (0.0, 0.25, 0.5, 0.75, 0.9, 0.9999)]
        assert counts == sorted(counts, reverse=True)

    def test_gamma_out_of_range(self):
        with pytest.raises(InputError):
            threshold_edges(self.make_sample(), 1.5)

    def test_threshold_implies_probability_floor(self):
        sample = self.make_sample()
        out = threshold_edges(sample, 0.55)
        for p, a in zip(out.edge_probs, out.thresholded_adj):
            assert np.all(p[a > 0] >= 0.55)


class TestGenerate:
    def test_block_sizes_preserved(self):
        g, batch, params = small_batch()
        spec = NoiseSpec(noise_dim=3, num_psi=2)
        out = generate(params, batch, spec, 0.5, stream_rng(3, "gen"))
        assert np.array_equal(out.block_sizes, batch.block_sizes)
        assert np.array_equal(out.link_labels, batch.batch_labels)

    def test_extreme_gamma_near_empty(self):
        g, batch, params = small_batch()
        spec = NoiseSpec(noise_dim=3, num_psi=1)
        out = generate(params, batch, spec, 0.9999, stream_rng(3, "gen"))
        total_pairs = sum(int(m) * (int(m) - 1) // 2 for m in out.block_sizes)
        assert out.edge_count() <= max(1, total_pairs // 20)

    def test_generated_cn_matches_graph_oracle(self):
        g, batch, params = small_batch()
        spec = NoiseSpec(noise_dim=3, num_psi=1)
        out = generate(params, batch, spec, 0.5, stream_rng(4, "gen"))
        # All blocks as one block-diagonal graph, so one call scores every
        # target; no edge crosses blocks, so no common neighbour does either.
        edges, targets, direct = [], [], []
        for adj, at in zip(out.thresholded_adj, batch.offsets):
            edges.append(np.stack(np.nonzero(np.triu(adj, 1)), axis=1) + at)
            targets.append((at, at + 1))
            direct.append(int((adj[0] * adj[1]).sum()))
        n = batch.total_nodes
        whole = Graph.from_edge_array(n, np.concatenate(edges), np.zeros((n, 1)))
        u, v = np.array(targets).T
        assert common_neighbors(whole, u, v).tolist() == direct


class TestPretrain:
    def make_split(self, seed=3):
        g = sbm_graph([30, 30], 0.35, 0.03, seed=seed)
        return g, generate_split(g, SplitSpec("CN", "backward", 2, 1, seed=seed))

    def test_loss_decreases_over_first_epochs(self):
        g, split = self.make_split()
        cfg = GgmTrainConfig(epochs=10, patience=10, lr=1e-2, batch_size=32, seed=1)
        res = pretrain_ggm(split.observed_graph, split, cfg, NoiseSpec(noise_dim=4, num_psi=1))
        assert res.trace[-1]["loss"] < res.trace[0]["loss"]

    def test_identical_seeds_identical_checkpoints(self):
        g, split = self.make_split()
        cfg = GgmTrainConfig(epochs=4, patience=4, lr=1e-3, batch_size=32, seed=2)
        spec = NoiseSpec(noise_dim=4, num_psi=2)
        a = pretrain_ggm(split.observed_graph, split, cfg, spec)
        b = pretrain_ggm(split.observed_graph, split, cfg, spec)
        for k in a.params.named():
            assert np.array_equal(a.params.named()[k], b.params.named()[k]), k
        assert a.final_kl == b.final_kl

    def test_heldout_reconstruction_auc(self):
        # two dense communities with a sparse bridge: block structure is
        # predictable enough for reconstruction to generalize
        g = sbm_graph([13, 13], 0.85, 0.05, seed=11)
        split = generate_split(g, SplitSpec("CN", "backward", 2, 1, seed=11))
        pos = split.train_pos
        perm = np.random.default_rng(0).permutation(pos.shape[0])
        cut = int(0.8 * len(perm))
        fit_split = dataclasses.replace(split, train_pos=pos[perm[:cut]])
        cfg = GgmTrainConfig(epochs=300, patience=300, lr=1e-2, batch_size=0, seed=4)
        spec = NoiseSpec(noise_dim=4, num_psi=1)
        res = pretrain_ggm(split.observed_graph, fit_split, cfg, spec)

        held = [Edge(int(u), int(v)) for u, v in pos[perm[cut:]]]
        subs = extract_for_links(split.observed_graph, held, k=1, max_nodes=30, seed=9)
        batch = make_batch(subs)
        [(mu, _)] = encode_semi_implicit(res.params, batch,
                                         dataclasses.replace(spec, zero_noise=True),
                                         stream_rng(10, "noise"))
        recon = decode_node_aware(mu, batch)
        scores_pos, scores_neg = [], []
        for p, block in zip(recon.edge_probs, batch.blocks):
            adj = block.local_adjacency
            iu, ju = np.triu_indices(adj.shape[0], k=1)
            vals = p[iu, ju]
            mask = adj[iu, ju] > 0
            scores_pos.extend(vals[mask])
            scores_neg.extend(vals[~mask])
        auc = _auc(np.array(scores_pos), np.array(scores_neg))
        assert auc > 0.8, auc


def _auc(pos, neg):
    # rank-based Mann-Whitney estimate
    all_scores = np.concatenate([pos, neg])
    order = np.argsort(all_scores, kind="mergesort")
    ranks = np.empty_like(order, dtype=float)
    ranks[order] = np.arange(1, all_scores.size + 1)
    # average ties
    for val in np.unique(all_scores):
        idx = all_scores == val
        ranks[idx] = ranks[idx].mean()
    r_pos = ranks[: pos.size].sum()
    return (r_pos - pos.size * (pos.size + 1) / 2) / (pos.size * neg.size)


class TestDumps:
    def test_roundtrip(self, tmp_path):
        g, batch, params = small_batch()
        out = generate(params, batch, NoiseSpec(noise_dim=3, num_psi=1), 0.6,
                       stream_rng(6, "gen"))
        path = tmp_path / "samples.json"
        dump_samples([out], path)
        loaded = load_samples(path, g.num_nodes)
        assert len(loaded) == out.num_blocks
        for rec, b in zip(loaded, range(out.num_blocks)):
            assert rec["block_size"] == int(out.block_sizes[b])
            assert np.array_equal(rec["adjacency"], out.thresholded_adj[b])

    # The CLI tests cover a three-id, a fractional and a string target, a
    # self-loop edge and a block larger than the graph; these are the other
    # shapes rejected. A bool edge end would index a whole row of the adjacency.
    @pytest.mark.parametrize("field,value", [
        ("target", [0, -1]), ("block_size", 0), ("block_size", True), ("block_size", 2.0),
        ("edges", [[True, 1, 0.5]]),
    ])
    def test_malformed_block_rejected_with_the_file_named(self, tmp_path, field, value):
        g, batch, params = small_batch()
        out = generate(params, batch, NoiseSpec(noise_dim=3, num_psi=1), 0.6,
                       stream_rng(6, "gen"))
        path = tmp_path / "samples.json"
        dump_samples([out], path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["samples"][0][field] = value
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValidationError, match="samples.json: malformed samples"):
            load_samples(path, g.num_nodes)

    @staticmethod
    def json_document(samples):
        """The document dump_samples writes, built as a dict and dumped by json."""
        doc = {"samples": []}
        for s in samples:
            for b in range(s.num_blocks):
                p = s.edge_probs[b]
                iu, ju = np.nonzero(np.triu(s.thresholded_adj[b], 1))
                doc["samples"].append({
                    "block_size": int(s.block_sizes[b]),
                    "label": int(s.link_labels[b]),
                    "target": [0, 1],
                    "gamma": s.gamma,
                    "edges": [[int(i), int(j), float(p[i, j])] for i, j in zip(iu, ju)],
                })
        return json.dumps(doc)

    def test_bytes_equal_json(self, tmp_path):
        _, batch, params = small_batch(n_links=4)
        out = generate(params, batch, NoiseSpec(noise_dim=3, num_psi=1), 0.0,
                       stream_rng(6, "gen"))
        edgeless = threshold_edges(out, 1.0)
        assert edgeless.edge_count() == 0
        path = tmp_path / "samples.json"
        for samples in ([out], [threshold_edges(out, 0.0)], [threshold_edges(out, 0.55)],
                        [edgeless], [out, edgeless]):
            dump_samples(samples, path)
            assert path.read_text(encoding="utf-8") == self.json_document(samples)

