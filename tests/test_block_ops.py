"""The batch ops that replaced per-block tape chains: decode_logits, recon_loss
and predictor_loss; the fused layers that replaced per-layer ones:
gcn_forward and the encoder's hidden layer; and score_pairs, one record in
place of a gather per endpoint, a product and a row sum.

Each must reproduce the per-block implementations in blocks_reference.py
byte for byte (losses and every leaf gradient of the training steps, and the
checkpoints both pre-training stages write),
match central finite differences, and keep a step's tape the same length
whatever the batch size. A finished step's tape is freed without the cyclic
garbage collector.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from counterlink import autodiff as ad
from counterlink import cotrain, generator, gnn
from counterlink.cotrain import CotrainConfig
from counterlink.generator import NoiseSpec, decode_logits, init_sivi_params, recon_loss
from counterlink.gnn import init_gcn_params
from counterlink.graphs import Graph, LabeledSubgraph, make_batch, normalize_adjacency
from counterlink.rng import stream_rng

from blocks_reference import score_pairs as chained_score_pairs, use_reference_blocks
from test_autodiff import finite_diff, max_rel_err
from test_cli import pipeline_dirs, run, run_pipeline_through_split

FEATURES = 3


def batch_of(rng, sizes, densities, labels):
    """Random labeled blocks over one shared feature matrix, each block on its
    own rows, its link's endpoints first."""
    drawn = []
    for m, density in zip(sizes, densities):
        upper = np.triu(rng.random((m, m)) < density, 1)
        drawn.append(((upper | upper.T).astype(np.float64), rng.random((m, FEATURES))))
    features = np.concatenate([x for _, x in drawn])
    blocks, start = [], 0
    for (adj, _), label in zip(drawn, labels):
        m = adj.shape[0]
        blocks.append(LabeledSubgraph(
            node_map=np.arange(start, start + m),
            local_adjacency=adj,
            graph_features=features,
            labels=(np.arange(m) < 2).astype(np.float64),
            link_label=label,
        ))
        start += m
    return make_batch(blocks)


def models(seed, spec, hidden=3):
    """Small hidden widths, so some nodes' hidden units are all dead."""
    ggm = init_sivi_params(FEATURES, hidden=hidden, zdim=3, noise_dim=spec.noise_dim,
                           rng=np.random.default_rng(seed))
    gnn = init_gcn_params(FEATURES, hidden=4, layers=2, dropout=0.0,
                          rng=np.random.default_rng(seed + 1))
    return ggm, gnn


def elbo_step(batch, ggm, spec, seed):
    """pretrain_ggm's step: loss, KL and every generator-leaf gradient, as bytes."""
    tape = ad.Tape()
    leaves = tape.leaves(ggm.named())
    res = generator.sivi_elbo(ggm, batch, spec, stream_rng(seed, "noise"), leaves=leaves)
    grads = ad.backward(res.loss).named(leaves)
    return [res.loss.value.tobytes(), res.kl.value.tobytes()] + [
        grads[k].tobytes() for k in sorted(grads)
    ]


def predictor_step(batch, gnn, ggm, spec, gamma, seed):
    """flex_tune's predictor step: lp, mean generated CN and GCN-leaf gradients."""
    leaves = ad.Tape().leaves(gnn.named())
    logits = generator.first_draw_logits(ggm, batch, spec, stream_rng(seed, "noise"))
    lp, mean_cn = cotrain.predictor_loss(gnn, batch, logits, gamma, leaves)
    grads = ad.backward(ad.mul(lp, ad.Tensor(1.05))).named(leaves)
    return [lp.value.tobytes(), np.float64(mean_cn).tobytes()] + [
        grads[k].tobytes() for k in sorted(grads)
    ]


def generator_step(batch, gnn, ggm, spec, gamma, seed):
    """flex_tune's generator step on the joint tape: lp, gen and every leaf gradient."""
    cfg = CotrainConfig(gamma=gamma, noise=spec)
    bundle = cotrain.cotrain_losses(gnn, ggm, batch, cfg, 2.0, stream_rng(seed, "noise"))
    descend = ad.sub(ad.mul(bundle.lp, ad.Tensor(cfg.alpha)), bundle.gen)
    grads = ad.backward(descend).named({**bundle.ggm_leaves, **bundle.gnn_leaves})
    return [bundle.lp.value.tobytes(), bundle.gen.value.tobytes()] + [
        grads[k].tobytes() for k in sorted(grads)
    ]


def decoder_step(batch, gnn, h, gamma, with_predictor):
    """The three ops on one tape from a latent leaf: the loss, and the gradients
    of the latents and of every block's logits (packed), as bytes."""
    tape = ad.Tape()
    latents = tape.leaf(h)
    logits = generator.decode_logits(latents, batch)
    loss = generator.recon_loss(logits, batch)
    if with_predictor:
        lp, _ = cotrain.predictor_loss(gnn, batch, logits, gamma, tape.leaves(gnn.named()))
        loss = ad.add(loss, lp)
    grads = ad.backward(loss)
    if isinstance(logits, ad.Tensor):
        g_logits = grads.of(logits)
    else:  # the per-block reference
        g_logits = np.concatenate([grads.of(t).ravel() for t in logits])
    return [loss.value.tobytes(), grads.of(latents).tobytes(), g_logits.tobytes()]


@st.composite
def drawn_case(draw):
    count = draw(st.integers(1, 8))
    sizes = draw(st.lists(st.one_of(st.just(2), st.integers(2, 40)),
                          min_size=count, max_size=count))
    # density 0 gives edgeless blocks (pairs among them), 1 complete ones
    # (zero positive weight)
    densities = draw(st.lists(st.sampled_from([0.0, 0.15, 0.5, 1.0]),
                              min_size=count, max_size=count))
    labels = draw(st.lists(st.sampled_from([0, 1]), min_size=count, max_size=count))
    noise_dim, num_psi = draw(st.sampled_from([(0, 1), (2, 1), (2, 3)]))
    seed = draw(st.integers(0, 2**16))
    gamma = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    batch = batch_of(np.random.default_rng(seed), sizes, densities, labels)
    spec = NoiseSpec(noise_dim=noise_dim, num_psi=num_psi)
    return batch, spec, seed, gamma


class TestByteIdenticalToPerBlockOps:
    @settings(max_examples=150, deadline=None)
    @given(drawn_case())
    def test_elbo_step(self, case):
        batch, spec, seed, _ = case
        ggm, _ = models(seed, spec)
        new = elbo_step(batch, ggm, spec, seed)
        with use_reference_blocks():
            old = elbo_step(batch, ggm, spec, seed)
        assert new == old

    @settings(max_examples=150, deadline=None)
    @given(drawn_case())
    def test_predictor_step(self, case):
        batch, spec, seed, gamma = case
        ggm, gnn = models(seed, spec)
        new = predictor_step(batch, gnn, ggm, spec, gamma, seed)
        with use_reference_blocks():
            old = predictor_step(batch, gnn, ggm, spec, gamma, seed)
        assert new == old

    @settings(max_examples=150, deadline=None)
    @given(drawn_case())
    def test_generator_step(self, case):
        batch, spec, seed, gamma = case
        ggm, gnn = models(seed, spec)
        new = generator_step(batch, gnn, ggm, spec, gamma, seed)
        with use_reference_blocks():
            old = generator_step(batch, gnn, ggm, spec, gamma, seed)
        assert new == old

    @pytest.mark.parametrize("with_predictor", [False, True])
    @settings(max_examples=150, deadline=None)
    @given(case=drawn_case())
    def test_decoder_gradients(self, case, with_predictor):
        batch, spec, seed, gamma = case
        _, gnn = models(seed, spec)
        h = np.random.default_rng(seed).standard_normal((batch.total_nodes, 3))
        new = decoder_step(batch, gnn, h, gamma, with_predictor)
        with use_reference_blocks():
            old = decoder_step(batch, gnn, h, gamma, with_predictor)
        assert new == old


class TestFusedLayers:
    """gcn_forward records one op per call and the encoder's hidden layer one
    per draw, where the reference records matmul, propagation, bias, ReLU and
    dropout one by one."""

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("dropout", [0.0, 0.1, 0.5])
    def test_gcn_forward_step(self, layers, dropout):
        # pretrain_gnn's step, on a graph with isolated nodes. Random biases
        # leave some hidden units dead, yet every parameter gets a gradient.
        rng = np.random.default_rng(layers)
        n = 30
        edges = np.unique(np.sort(rng.integers(0, n - 3, (40, 2)), axis=1), axis=0)
        g = Graph.from_edge_array(n, edges[edges[:, 0] != edges[:, 1]],
                                  rng.random((n, FEATURES)))
        a_norm = normalize_adjacency(g.adjacency)
        params = init_gcn_params(FEATURES, hidden=4, layers=layers, dropout=dropout, rng=rng)
        for b in params.biases:
            b[:] = rng.standard_normal(b.shape) * 0.5
        pos, neg = rng.integers(0, n, (2, 12, 2))

        def step():
            leaves = ad.Tape().leaves(params.named())
            h = gnn.gcn_forward(params, a_norm, g.features, rng=stream_rng(layers, "dropout"),
                                leaves=leaves)
            loss = gnn.lp_loss(gnn.score_pairs(h, pos), gnn.score_pairs(h, neg))
            grads = ad.backward(loss, wrt=leaves).named(leaves)
            return [loss.value.tobytes()] + [grads[k].tobytes() for k in sorted(grads)]

        new = step()
        with use_reference_blocks():
            old = step()
        assert new == old

    def test_pretrained_checkpoints(self, tmp_path):
        # Both pre-training stages end to end, with dropout and three mixing
        # draws: every Adam step's bytes go into the checkpoints.
        d = pipeline_dirs(tmp_path)
        run_pipeline_through_split(d)
        graph = ["--edges", d["graph"] / "edges.tsv", "--features", d["graph"] / "features.csv",
                 "--split", d["split"] / "split.json"]

        def pretrain(out):
            assert run(["pretrain-gnn", *graph, "--epochs", 3, "--patience", 3,
                        "--batch-size", 16, "--dropout", 0.1, "--hidden", 8, "--eval-k", 3,
                        "--out", out / "gnn"]) == 0
            assert run(["pretrain-ggm", *graph, "--epochs", 2, "--patience", 2,
                        "--batch-size", 16, "--noise-dim", 4, "--num-psi", 3,
                        "--out", out / "ggm"]) == 0
            return [(out / m / f"{m}.ckpt").read_bytes() for m in ("gnn", "ggm")]

        new = pretrain(tmp_path / "fused")
        with use_reference_blocks():
            old = pretrain(tmp_path / "reference")
        assert new == old


def pair_lists(n):
    """Pair lists over n nodes, with a pair repeated, reversed or made a
    self-pair as hypothesis chooses; a list may hold one pair."""
    node = st.integers(0, n - 1)

    @st.composite
    def draw(data):
        pairs = data(st.lists(st.tuples(node, node), min_size=1, max_size=12))
        for edit, i, w in data(st.lists(st.tuples(
                st.sampled_from(["repeat", "reverse", "self"]), st.integers(0, 99), node),
                max_size=4)):
            u, v = pairs[i % len(pairs)]
            pairs.insert(i % (len(pairs) + 1),
                         {"repeat": (u, v), "reverse": (v, u), "self": (w, w)}[edit])
        return np.array(pairs, dtype=np.int64)

    return draw()


class TestScorePairs:
    """score_pairs records once per call and re-reads h in its backward; the
    link loss's gradients must be the bytes of the gather, multiply and sum
    chain it replaced, and C-ordered like them."""

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_link_loss_gradients_byte_identical(self, data):
        n = data.draw(st.integers(1, 9), label="n")
        layers = data.draw(st.integers(1, 2), label="layers")
        hidden = data.draw(st.integers(1, 5), label="hidden")
        pos = data.draw(pair_lists(n), label="pos")
        neg = data.draw(pair_lists(n), label="neg")
        rng = np.random.default_rng(n * 10 + hidden)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        g = Graph.from_edge_array(n, edges, rng.random((n, FEATURES)))
        a_norm = normalize_adjacency(g.adjacency)
        params = init_gcn_params(FEATURES, hidden=hidden, layers=layers, dropout=0.2, rng=rng)

        def step(score):
            leaves = ad.Tape().leaves(params.named())
            h = gnn.gcn_forward(params, a_norm, g.features, rng=stream_rng(n, "dropout"),
                                leaves=leaves)
            loss = gnn.lp_loss(score(h, pos), score(h, neg))
            grads = ad.backward(loss)
            return [loss.value, grads.of(h)] + [grads.of(leaves[k]) for k in sorted(leaves)]

        new = step(gnn.score_pairs)
        old = step(chained_score_pairs)
        assert [a.tobytes() for a in new] == [a.tobytes() for a in old]
        assert all(a.flags.c_contiguous for a in new[1:])

    def test_one_record_per_call(self):
        tape = ad.Tape()
        h = tape.leaf(np.random.default_rng(0).standard_normal((5, 3)))
        gnn.score_pairs(h, [(0, 1), (2, 2), (1, 0)])
        assert len(tape._records) == 1


# Batches that stress the size groups: one group, one group per block, pairs
# (two-node blocks) among larger ones, only pairs, and sizes that come back in
# batch order so a group's blocks are not adjacent. Blocks have edge density
# 0.5, but the pair groupings' first pair is edgeless.
GROUPINGS = {
    "one_size": [6, 6, 6, 6, 6],
    "every_size": [2, 3, 5, 8, 13, 21],
    "pairs": [2, 4, 2, 2, 3, 2],
    "only_pairs": [2, 2, 2],
    "interleaved": [4, 9, 2, 4, 9, 2, 4, 9],
}


class TestSizeGroups:
    @pytest.mark.parametrize("grouping", GROUPINGS)
    @pytest.mark.parametrize("step", ["elbo", "predictor", "generator", "decoder"])
    def test_byte_identical_to_per_block_ops(self, grouping, step):
        # The predictor step reads constant logits; the generator and
        # decoder steps tape them.
        sizes = GROUPINGS[grouping]
        count = len(sizes)
        densities = [0.5] * count
        if "pairs" in grouping:
            densities[0] = 0.0
        spec = NoiseSpec(noise_dim=2, num_psi=3)
        batch = batch_of(np.random.default_rng(count), sizes, densities,
                         np.arange(count) % 2)
        ggm, gnn = models(count, spec)

        def run():
            if step == "elbo":
                return elbo_step(batch, ggm, spec, count)
            if step == "predictor":
                return predictor_step(batch, gnn, ggm, spec, 0.5, count)
            if step == "generator":
                return generator_step(batch, gnn, ggm, spec, 0.5, count)
            h = np.random.default_rng(count).standard_normal((batch.total_nodes, 3))
            return decoder_step(batch, gnn, h, 0.5, with_predictor=True)

        new = run()
        with use_reference_blocks():
            old = run()
        assert new == old

    def test_groups_cover_every_block_once_in_batch_order(self):
        batch = batch_of(np.random.default_rng(0), GROUPINGS["interleaved"],
                         [0.5] * 8, [1] * 8)
        offsets, _ = batch.packed_layout()
        groups = batch.size_groups()
        assert [grp.m for grp in groups] == [2, 4, 9]
        blocks = np.concatenate([grp.blocks for grp in groups])
        assert sorted(blocks.tolist()) == list(range(8))
        for grp in groups:
            assert np.all(np.diff(grp.blocks) > 0)
            assert np.all(batch.block_sizes[grp.blocks] == grp.m)
            for i, b in enumerate(grp.blocks.tolist()):
                m = grp.m
                rows = grp.rows.reshape(-1, m)[i]
                cells = grp.cells.reshape(-1, m * m)[i]
                assert rows.tolist() == list(range(batch.offsets[b], batch.offsets[b] + m))
                assert cells.tolist() == list(range(offsets[b], offsets[b + 1]))


# Blocks of 3, 2 and 4 nodes; the last two have no edges.
SIZES = np.array([3, 2, 4])


def small_batch(seed=0):
    return batch_of(np.random.default_rng(seed), SIZES, [1.0, 0.0, 0.0], [1, 0, 0])


class TestGradients:
    def test_decode_logits(self):
        rng = np.random.default_rng(1)
        batch = small_batch()
        arrays = {"h": rng.standard_normal((SIZES.sum(), 2))}
        mix = rng.standard_normal(int((SIZES**2).sum()))

        def run(arrs, collect=False):
            tape = ad.Tape()
            leaves = tape.leaves(arrs)
            loss = ad.tsum(ad.mul(decode_logits(leaves["h"], batch), ad.Tensor(mix)))
            return ad.backward(loss).named(leaves) if collect else loss.item()

        assert max_rel_err(run(arrays, collect=True), finite_diff(run, arrays)) < 1e-6

    def test_recon_loss(self):
        rng = np.random.default_rng(2)
        batch = small_batch()
        arrays = {"logits": rng.standard_normal(int((SIZES**2).sum())) * 2.0}

        def run(arrs, collect=False):
            tape = ad.Tape()
            leaves = tape.leaves(arrs)
            loss = recon_loss(leaves["logits"], batch)
            return ad.backward(loss).named(leaves) if collect else loss.item()

        assert max_rel_err(run(arrays, collect=True), finite_diff(run, arrays)) < 1e-6

    @pytest.mark.parametrize("taped_logits", [False, True])
    def test_predictor_loss(self, taped_logits):
        rng = np.random.default_rng(3)
        batch = small_batch()
        gnn = init_gcn_params(FEATURES, hidden=4, layers=2, dropout=0.0,
                              rng=np.random.default_rng(4))
        # Keep every probability clear of gamma = 0.5, so the mask is fixed.
        x = rng.standard_normal(int((SIZES**2).sum()))
        logits = np.sign(x) * (np.abs(x) + 0.2)
        logits[-16:] = -np.abs(logits[-16:])  # the edgeless block stays edgeless
        arrays = dict(gnn.named())
        if taped_logits:
            arrays["logits"] = logits

        def run(arrs, collect=False):
            tape = ad.Tape()
            leaves = tape.leaves(arrs)
            packed = leaves.get("logits", ad.Tensor(logits))
            gnn_leaves = {k: t for k, t in leaves.items() if k != "logits"}
            lp, _ = cotrain.predictor_loss(gnn, batch, packed, 0.5, gnn_leaves)
            return ad.backward(lp).named(leaves) if collect else lp.item()

        analytic = run(arrays, collect=True)
        assert set(analytic) == set(arrays)
        assert max_rel_err(analytic, finite_diff(run, arrays)) < 1e-5


class TestTapeSize:
    @pytest.mark.parametrize("step", ["elbo", "predictor", "generator"])
    def test_records_per_step_do_not_grow_with_batch_size(self, step):
        spec = NoiseSpec(noise_dim=2, num_psi=3)
        ggm, gnn = models(0, spec, hidden=8)
        counts = []
        for count in (16, 128):
            rng = np.random.default_rng(count)
            batch = batch_of(rng, rng.integers(2, 12, count), [0.3] * count,
                             np.arange(count) % 2)
            if step == "elbo":
                tape = ad.Tape()
                generator.sivi_elbo(ggm, batch, spec, stream_rng(0, "noise"),
                                    leaves=tape.leaves(ggm.named()))
            elif step == "predictor":
                tape = ad.Tape()
                logits = generator.first_draw_logits(ggm, batch, spec,
                                                     stream_rng(0, "noise"))
                cotrain.predictor_loss(gnn, batch, logits, 0.5,
                                       tape.leaves(gnn.named()))
            else:
                bundle = cotrain.cotrain_losses(gnn, ggm, batch, CotrainConfig(noise=spec),
                                                2.0, stream_rng(0, "noise"))
                tape = bundle.lp.tape
            counts.append(len(tape._records))
        assert counts[0] == counts[1] < 100

    def test_tape_freed_by_reference_counting(self):
        # With few Python objects per step the cyclic collector runs rarely,
        # so a tape in a reference cycle would pin its step's arrays.
        spec = NoiseSpec(noise_dim=2, num_psi=3)
        ggm, gnn = models(0, spec, hidden=8)
        rng = np.random.default_rng(0)
        batch = batch_of(rng, rng.integers(2, 12, 16), [0.3] * 16, np.arange(16) % 2)
        gc.disable()
        try:
            bundle = cotrain.cotrain_losses(gnn, ggm, batch, CotrainConfig(noise=spec),
                                            2.0, stream_rng(0, "noise"))
            ad.backward(ad.sub(ad.mul(bundle.lp, ad.Tensor(1.05)), bundle.gen))
            tape = weakref.ref(bundle.lp.tape)
            del bundle
            assert tape() is None
        finally:
            gc.enable()
