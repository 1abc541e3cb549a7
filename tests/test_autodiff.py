import dataclasses
import math
import struct

import numpy as np
import pytest

from counterlink import autodiff as ad
from counterlink.errors import InputError, NumericError, ShapeError
from counterlink.gnn import GcnParams, gcn_forward, init_gcn_params
from counterlink.graphs import Graph, normalize_adjacency
from counterlink.rng import stream_rng
from blocks_reference import bce_with_logits, relu, sigmoid, sparse_matmul
from graphs_reference import csr_from_dense, matmul_dense_reference


def finite_diff(f, arrays, h=1e-5):
    """Central-difference gradients of a scalar function of named arrays."""
    grads = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = f(arrays)
            flat[i] = orig - h
            down = f(arrays)
            flat[i] = orig
            gflat[i] = (up - down) / (2 * h)
        grads[name] = g
    return grads


def max_rel_err(analytic, numeric):
    worst = 0.0
    for name in analytic:
        a, n = analytic[name], numeric[name]
        denom = np.maximum(np.abs(a) + np.abs(n), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


class TestForward:
    def test_sigmoid_zero(self):
        assert ad.stable_sigmoid(np.array(0.0), np.exp(-0.0)) == 0.5

    def test_bce_logit_zero_target_one(self):
        out = ad.bce_with_logits(ad.Tensor(np.array([0.0])), np.array([1.0]))
        assert out.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_matmul_identity(self):
        m = np.arange(9, dtype=float).reshape(3, 3)
        assert np.array_equal(ad.matmul(ad.Tensor(np.eye(3)), ad.Tensor(m)).value, m)

    def test_shape_error_names_op(self):
        with pytest.raises(ShapeError, match="matmul"):
            ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))
        with pytest.raises(ShapeError, match="add"):
            ad.add(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((4, 5))))

    def test_sparse_matmul_matches_dense(self):
        rng = np.random.default_rng(0)
        dense = np.triu((rng.random((6, 6)) < 0.4) * rng.random((6, 6)), 1)
        dense = dense + dense.T
        csr = csr_from_dense(dense)
        x = rng.standard_normal((6, 3))
        want = matmul_dense_reference(csr, x)
        assert csr.matmul_dense(x).tobytes() == want.tobytes()
        assert np.allclose(want, dense @ x)
        assert (csr @ x).tobytes() == want.tobytes()

    def test_sigmoid_and_bce_match_the_three_exp_forms(self):
        # The one-exp forms must reproduce the branchwise three-exp formulas
        # byte for byte, including both tails and signed zeros.
        x = np.concatenate([np.linspace(-800.0, 800.0, 4001),
                            [-0.0, 0.0, 1e-300, -1e-300, 36.7, -36.7, 709.8, -745.2]])
        old = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.maximum(x, 0))),
                       np.exp(np.minimum(x, 0)) / (1.0 + np.exp(np.minimum(x, 0))))
        assert ad.stable_sigmoid(x, np.exp(-np.abs(x))).tobytes() == old.tobytes()
        t = (np.arange(x.size) % 2).astype(np.float64)
        tape = ad.Tape()
        logits = tape.leaf(x)
        loss = bce_with_logits(logits, t, reduction="sum")
        old_loss = np.maximum(x, 0.0) - x * t + np.log1p(np.exp(-np.abs(x)))
        assert loss.value.tobytes() == np.asarray(old_loss.sum()).tobytes()
        per_entry = bce_with_logits(ad.Tensor(x), t, reduction="none")
        assert per_entry.value.tobytes() == old_loss.tobytes()
        grad = ad.backward(loss).of(logits)
        assert grad.tobytes() == (np.ones(()) * (old - t)).tobytes()


    def test_bce_mean_equals_the_general_form(self):
        # The package keeps only lp_loss's unweighted mean; the weighted and
        # summed forms live in the test oracle and must agree with it.
        rng = np.random.default_rng(4)
        x = np.concatenate([rng.standard_normal(97) * 30.0,
                            [-0.0, 0.0, 1e-300, 36.7, -36.7, 709.8, -745.2]])
        t = (rng.random(x.size) < 0.5).astype(np.float64)
        got, want = [], []
        for out, bce in ((got, ad.bce_with_logits), (want, bce_with_logits)):
            tape = ad.Tape()
            logits = tape.leaf(x)
            loss = bce(logits, t)
            out += [loss.value.tobytes(), ad.backward(loss).of(logits).tobytes()]
        assert got == want
        with pytest.raises(ShapeError, match="bce_with_logits"):
            ad.bce_with_logits(ad.Tensor(x), t[:-1])


class TestBackward:
    def test_constant_inputs_get_no_gradient(self):
        tape = ad.Tape()
        w = tape.leaf(np.arange(6.0).reshape(2, 3))
        x = ad.Tensor(np.ones((4, 2)))
        for op, const_first in ((lambda: ad.matmul(x, w), True),
                                (lambda: ad.mul(w, ad.Tensor(2.0)), False)):
            out = op()
            out_id, in_ids, back = tape._records[-1]
            assert out_id == out.node_id
            grads = back(np.ones(out.shape))
            const, traced = (grads[0], grads[1]) if const_first else (grads[1], grads[0])
            assert const is None
            assert traced.shape == w.shape
        g = ad.backward(ad.tsum(ad.matmul(x, w))).of(w)
        assert np.array_equal(g, x.value.T @ np.ones((4, 3)))

    def test_gather_rows_backward_matches_add_at(self):
        # Repeated picks must add in pick order from 0.0, as np.add.at does:
        # magnitudes far apart make any other order show in the bytes.
        # An empty pick list gives all zeros.
        rng = np.random.default_rng(21)
        for shape, picks in (((7, 5), 21), ((300, 32), 900), ((9,), 27), ((4, 3, 2), 12),
                             ((6, 4), 0), ((5,), 0)):
            tape = ad.Tape()
            x = tape.leaf(rng.standard_normal(shape))
            idx = rng.integers(0, shape[0] - 1, size=picks)
            ad.gather_rows(x, idx)
            _, _, back = tape._records[-1]
            g = rng.standard_normal((idx.size, *shape[1:]))
            g *= 10.0 ** rng.integers(-8, 9, size=g.shape)
            g[rng.random(g.shape) < 0.3] = -0.0
            expected = np.zeros(shape)
            np.add.at(expected, idx, g)
            assert back(g)[0].tobytes() == expected.tobytes()

    def test_square_at_three(self):
        tape = ad.Tape()
        x = tape.leaf(np.array(3.0))
        loss = ad.square(x)
        assert ad.backward(loss).of(x) == pytest.approx(6.0)

    def test_sigmoid_grad_at_zero(self):
        tape = ad.Tape()
        x = tape.leaf(np.array(0.0))
        loss = sigmoid(x)
        assert ad.backward(loss).of(x) == pytest.approx(0.25)

    def test_non_scalar_loss_rejected(self):
        tape = ad.Tape()
        x = tape.leaf(np.ones(3))
        with pytest.raises(InputError):
            ad.backward(ad.square(x))

    def test_unused_leaf_gets_zeros(self):
        tape = ad.Tape()
        x = tape.leaf(np.array(2.0))
        y = tape.leaf(np.ones((2, 2)))
        grads = ad.backward(ad.square(x))
        assert np.array_equal(grads.of(y), np.zeros((2, 2)))

    def test_tape_leak_guard(self):
        tape_a, tape_b = ad.Tape(), ad.Tape()
        x = tape_a.leaf(np.array(1.0))
        y = tape_b.leaf(np.array(1.0))
        grads = ad.backward(ad.square(y))
        with pytest.raises(InputError):
            grads.of(x)
        with pytest.raises(InputError):
            ad.backward(ad.square(y), wrt={"x": x})

    def test_wrt_keeps_the_bytes_and_only_what_was_asked(self):
        rng = np.random.default_rng(4)
        tape = ad.Tape()
        leaves = tape.leaves({"a": rng.standard_normal((3, 4)),
                              "b": rng.standard_normal((4, 2)),
                              "unused": np.ones(2)})
        hidden = relu(ad.matmul(leaves["a"], leaves["b"]))
        loss = ad.tsum(ad.mul(hidden, hidden))
        full = ad.backward(loss)
        for wrt in ({"b": leaves["b"]}, leaves):
            grads = ad.backward(loss, wrt=wrt)
            for t in wrt.values():
                assert grads.of(t).tobytes() == full.of(t).tobytes()
        assert np.array_equal(grads.of(leaves["unused"]), np.zeros(2))
        grads = ad.backward(loss, wrt={"b": leaves["b"]})
        # Neither another leaf nor an intermediate: their gradients were
        # never formed or were dropped once used.
        for t in (leaves["a"], hidden, loss):
            with pytest.raises(InputError):
                grads.of(t)
        assert full.of(hidden).shape == hidden.shape

    def test_selective_op_is_told_which_inputs_need_a_gradient(self):
        tape = ad.Tape()
        x, y = tape.leaf(np.array(2.0)), tape.leaf(np.array(3.0))
        xv, yv = x.value, y.value
        needs = []

        def back(g, need):
            needs.append(list(need))
            return (g * yv if need[0] else None, g * xv if need[1] else None, None)

        loss = ad.emit("product", xv * yv, [x, y, ad.Tensor(1.0)], back, selective=True)
        assert ad.backward(loss, wrt={"y": y}).of(y) == 2.0
        assert ad.backward(loss).of(x) == 3.0
        assert needs == [[False, True, False], [True, True, False]]

    def test_linearity(self):
        rng = np.random.default_rng(1)
        xv = rng.standard_normal((4, 3))

        def build(scale_f, scale_g):
            tape = ad.Tape()
            x = tape.leaf(xv.copy())
            f = ad.tsum(ad.square(x))
            g = ad.tmean(sigmoid(x))
            loss = ad.add(ad.mul(f, ad.Tensor(scale_f)), ad.mul(g, ad.Tensor(scale_g)))
            return ad.backward(loss).of(x)

        combo = build(2.0, -3.0)
        parts = 2.0 * build(1.0, 0.0) + -3.0 * build(0.0, 1.0)
        assert np.allclose(combo, parts, atol=1e-12)

    def test_mlp_against_finite_differences(self):
        rng = np.random.default_rng(5)
        arrays = {
            "w1": rng.standard_normal((4, 8)) * 0.5,
            "b1": rng.standard_normal(8) * 0.1,
            "w2": rng.standard_normal((8, 1)) * 0.5,
        }
        x = rng.standard_normal((6, 4))
        t = (rng.random((6, 1)) < 0.5).astype(float)

        def run(arrs, collect=False):
            tape = ad.Tape()
            leaves = tape.leaves(arrs)
            h = relu(ad.add(ad.matmul(ad.Tensor(x), leaves["w1"]), leaves["b1"]))
            logits = ad.matmul(h, leaves["w2"])
            loss = ad.bce_with_logits(logits, t)
            if collect:
                return ad.backward(loss).named(leaves)
            return loss.item()

        analytic = run(arrays, collect=True)
        numeric = finite_diff(lambda a: run(a), arrays)
        assert max_rel_err(analytic, numeric) < 1e-4

    def test_structured_ops_against_finite_differences(self):
        rng = np.random.default_rng(9)
        dense = (rng.random((5, 5)) < 0.5).astype(float)
        dense = np.triu(dense, 1)
        dense = dense + dense.T
        csr = csr_from_dense(dense)
        arrays = {"x": rng.standard_normal((5, 3)), "y": rng.standard_normal((2, 3)),
                  "w": rng.standard_normal((3, 3))}

        def run(arrs, collect=False):
            tape = ad.Tape()
            leaves = tape.leaves(arrs)
            prop = sparse_matmul(csr, leaves["x"])
            joined = ad.concat([prop, leaves["y"]], axis=0)
            picked = ad.gather_rows(joined, np.array([0, 2, 2, 6]))
            quad = ad.matmul(picked, leaves["w"])
            mixed = ad.mul(ad.exp(ad.clip(quad, -3.0, 3.0)), ad.Tensor(0.1))
            loss = ad.tmean(ad.square(ad.sub(mixed, ad.Tensor(1.0))))
            if collect:
                return ad.backward(loss).named(leaves)
            return loss.item()

        analytic = run(arrays, collect=True)
        numeric = finite_diff(lambda a: run(a), arrays)
        assert max_rel_err(analytic, numeric) < 1e-4

    def test_weighted_bce_reductions(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((3, 3))
        targets = (rng.random((3, 3)) < 0.5).astype(float)
        weights = rng.random((3, 3))
        arrays = {"l": logits}

        for reduction, wrap in [("mean", lambda t: t), ("sum", lambda t: t),
                                ("none", lambda t: ad.tmean(t))]:
            def run(arrs, collect=False):
                tape = ad.Tape()
                leaves = tape.leaves(arrs)
                loss = wrap(bce_with_logits(leaves["l"], targets, weights=weights,
                                            reduction=reduction))
                if collect:
                    return ad.backward(loss).named(leaves)
                return loss.item()

            analytic = run(arrays, collect=True)
            numeric = finite_diff(lambda a: run(a), arrays)
            assert max_rel_err(analytic, numeric) < 1e-4, reduction


class TestAdam:
    def test_zero_gradient_no_change(self):
        params = {"w": np.ones((2, 2))}
        state = ad.AdamState(lr=0.05)
        ad.adam_step(state, params, {"w": np.zeros((2, 2))})
        assert np.array_equal(params["w"], np.ones((2, 2)))

    def test_first_step_magnitude_is_lr(self):
        params = {"w": np.zeros(3)}
        state = ad.AdamState(lr=0.01)
        ad.adam_step(state, params, {"w": np.array([1.0, -2.0, 0.5])})
        assert np.allclose(np.abs(params["w"]), 0.01, atol=1e-6)
        assert params["w"][0] < 0 and params["w"][1] > 0

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(11)
            params = {"w": rng.standard_normal((3, 3))}
            state = ad.AdamState(lr=0.01)
            for _ in range(5):
                ad.adam_step(state, params, {"w": rng.standard_normal((3, 3))})
            return params["w"]

        assert np.array_equal(run(), run())

    def test_nan_gradient_aborts(self):
        params = {"w": np.ones(2)}
        with pytest.raises(NumericError):
            ad.adam_step(ad.AdamState(), params, {"w": np.array([1.0, np.nan])})



def fake_loop(scores, patience, higher=True, start=None):
    """ad.train_epochs over a fake run_epoch whose epoch e scores scores[e - 1];
    (best state, best row, trace, epochs whose state was snapshot)."""
    ran, snapped = [], []

    def run_epoch(epoch):
        ran.append(epoch)
        return {"score": scores[epoch - 1], "other": -epoch}

    def snapshot():
        snapped.append(ran[-1])
        return f"state@{ran[-1]}"

    best, row, trace = ad.train_epochs(len(scores), patience, run_epoch, snapshot, "score",
                                       higher=higher, start=start)
    return best, row, trace, snapped


class TestEpochLoop:
    def test_a_tie_keeps_the_earlier_epoch(self):
        best, row, _, _ = fake_loop([0.5, 0.5, 0.4], patience=3)
        assert (best, row["epoch"]) == ("state@1", 1)

    def test_lower_is_better_selects_the_lowest_score(self):
        best, row, _, _ = fake_loop([3.0, 1.0, 2.0, 1.0], patience=4, higher=False)
        assert (best, row["epoch"], row["score"]) == ("state@2", 2, 1.0)

    def test_patience_zero_stops_after_epoch_one(self):
        best, _, trace, _ = fake_loop([1.0, 2.0, 3.0], patience=0)
        assert best == "state@1" and [r["epoch"] for r in trace] == [1]

    @pytest.mark.parametrize("scores,patience,best_epoch", [
        ([1, 3, 2, 2, 2, 5, 6], 2, 2),
        ([1, 2, 1, 3, 1, 1, 1, 9], 3, 4),
        ([1, 2, 3, 4], 2, 4),
    ])
    def test_patience_p_stops_at_best_plus_p(self, scores, patience, best_epoch):
        best, row, trace, _ = fake_loop(scores, patience)
        assert row["epoch"] == best_epoch and best == f"state@{best_epoch}"
        assert len(trace) == min(len(scores), best_epoch + patience)

    def test_a_start_row_no_epoch_beats_is_returned_and_heads_the_trace(self):
        start = {"epoch": 0, "score": 0.9, "other": 0, "seconds": 0.0}
        best, row, trace, snapped = fake_loop([0.9, 0.5, 0.7], patience=2,
                                              start=(start, "pretrained"))
        assert (best, row) == ("pretrained", start) and not snapped
        assert trace[0] is start and [r["epoch"] for r in trace] == [0, 1, 2]

    def test_zero_epochs_return_the_start(self):
        start = {"epoch": 0, "score": 0.1, "seconds": 0.0}
        assert fake_loop([], patience=0, start=(start, "pretrained"))[:3] == (
            "pretrained", start, [start])

    def test_snapshot_runs_only_on_improvement(self):
        _, _, _, snapped = fake_loop([1.0, 0.0, 2.0, 2.0, 3.0], patience=5)
        assert snapped == [1, 3, 5]

    def test_row_keys_are_epoch_the_numbers_then_seconds(self):
        _, _, trace, _ = fake_loop([1.0, 2.0], patience=2)
        for epoch, row in enumerate(trace, 1):
            assert list(row) == ["epoch", "score", "other", "seconds"]
            assert row["epoch"] == epoch and row["seconds"] >= 0.0

    def test_batch_size_zero_gives_one_batch(self):
        [(start, order)] = ad.shuffled_batches(4, "shuffle.e1", 7, 0)
        assert start == 0
        assert order.tolist() == stream_rng(4, "shuffle.e1").permutation(7).tolist()

    def test_batches_split_the_permutation_and_the_last_can_be_short(self):
        batches = ad.shuffled_batches(4, "shuffle.e1", 7, 3)
        assert [start for start, _ in batches] == [0, 3, 6]
        assert [len(order) for _, order in batches] == [3, 3, 1]
        joined = np.concatenate([order for _, order in batches])
        assert joined.tolist() == stream_rng(4, "shuffle.e1").permutation(7).tolist()


class TestCheckpoint:
    def test_params_codec_round_trips_both_models(self, tmp_path):
        from counterlink.generator import SiviParams, init_sivi_params
        from counterlink.gnn import GcnParams, init_gcn_params

        rng = np.random.default_rng(3)
        for params, cls in (
                (init_gcn_params(4, hidden=5, layers=2, dropout=0.1, rng=rng), GcnParams),
                (init_sivi_params(4, hidden=5, zdim=2, noise_dim=8, rng=rng), SiviParams)):
            path = tmp_path / "model.ckpt"
            ad.save_params(path, params, extra_meta={"best_valid": 0.25})
            # The bytes of the named arrays, meta and extra meta written directly.
            direct = tmp_path / "direct.ckpt"
            ad.save_checkpoint(direct, {**params.named(), **params.meta(),
                                        "meta.best_valid": np.array([0.25])})
            assert path.read_bytes() == direct.read_bytes()
            loaded, meta = ad.load_params(path, cls)
            assert meta["best_valid"] == 0.25
            for k, v in params.named().items():
                assert loaded.named()[k].tobytes() == v.tobytes(), k
            assert loaded.meta().keys() == params.meta().keys()

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        named = {"a.w": rng.standard_normal((3, 4)), "b": np.array([1.5])}
        path = tmp_path / "model.ckpt"
        ad.save_checkpoint(path, named)
        loaded = ad.load_checkpoint(path)
        assert set(loaded) == set(named)
        for k in named:
            assert np.array_equal(loaded[k], named[k])

    def test_set_optimizer_state_flag_rejected_with_its_name(self, tmp_path):
        path = tmp_path / "model.ckpt"
        ad.save_checkpoint(path, {"w": np.ones(2)})
        raw = bytearray(path.read_bytes())
        assert raw[-1] == 0  # the trailing flag; only parameters are stored
        raw[-1] = 1
        path.write_bytes(bytes(raw))
        with pytest.raises(InputError, match="model.ckpt: corrupt checkpoint"):
            ad.load_checkpoint(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(InputError):
            ad.load_checkpoint(path)

    @pytest.mark.parametrize("keep", [30, -5, -1])
    def test_truncated_file_rejected_with_its_name(self, tmp_path, keep):
        path = tmp_path / "model.ckpt"
        ad.save_checkpoint(path, {"w": np.ones((3, 4)), "b": np.zeros(4)})
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(InputError, match="model.ckpt: truncated"):
            ad.load_checkpoint(path)

    @pytest.mark.parametrize("dims", [(2**40,), (2**32, 2**32), (-2, -2)])
    def test_claimed_size_beyond_the_file_rejected_with_its_name(self, tmp_path, dims):
        # 2**40 elements would ask for 8 TB; 2**32 x 2**32 wraps np.prod to 0;
        # two negative dims multiply to a size the file does hold.
        path = tmp_path / "model.ckpt"
        ad.save_checkpoint(path, {"w": np.ones((2,) * len(dims))})
        raw = bytearray(path.read_bytes())
        assert raw[19] == len(dims)  # ndim of "w", its dims follow
        raw[20 : 20 + 8 * len(dims)] = struct.pack(f"<{len(dims)}q", *dims)
        path.write_bytes(bytes(raw))
        with pytest.raises(InputError, match="model.ckpt: truncated or corrupt"):
            ad.load_checkpoint(path)

    def test_non_utf8_array_name_rejected_with_its_name(self, tmp_path):
        path = tmp_path / "model.ckpt"
        ad.save_checkpoint(path, {"weights": np.ones(3)})
        raw = bytearray(path.read_bytes())
        raw[19] = 0xFF  # inside the first array name
        path.write_bytes(bytes(raw))
        with pytest.raises(InputError, match="model.ckpt: corrupt checkpoint"):
            ad.load_checkpoint(path)


class TestDropout:
    def test_disabled_outside_training(self):
        # Evaluation passes no rng to gcn_forward, so no dropout runs: the
        # embeddings equal those of the same weights with dropout rate 0.
        g = Graph.from_edge_array(4, [(0, 1), (1, 2), (2, 3)], np.eye(4))
        params = init_gcn_params(4, hidden=6, layers=3, dropout=0.5,
                                 rng=np.random.default_rng(0))
        a_norm = normalize_adjacency(g.adjacency)
        out = gcn_forward(params, a_norm, g.features).value
        plain = dataclasses.replace(params, dropout=0.0)
        rng = np.random.default_rng(1)
        assert np.array_equal(out, gcn_forward(plain, a_norm, g.features, rng=rng).value)
        assert not np.array_equal(out, gcn_forward(params, a_norm, g.features, rng=rng).value)

    def test_mask_scaling_and_grad(self):
        # No edges, one-hot features and all-ones first weights: the hidden
        # layer is all ones, so the output is gcn_forward's dropout mask, and
        # each node's row of the first weight's gradient is that node's.
        n = 200
        g = Graph.from_edge_array(n, np.empty((0, 2)), np.eye(n))
        params = GcnParams(weights=[np.ones((n, 5)), np.eye(5)], biases=[np.zeros(5)] * 2,
                           dropout=0.25, hidden=5)
        leaves = ad.Tape().leaves(params.named())
        out = gcn_forward(params, normalize_adjacency(g.adjacency), g.features,
                          rng=np.random.default_rng(1), leaves=leaves)
        kept = out.value[out.value > 0]
        assert np.allclose(kept, 1.0 / 0.75)
        g_w0 = ad.backward(ad.tmean(out)).of(leaves["gnn.w0"])
        assert np.allclose(g_w0[out.value == 0], 0.0)
        assert np.allclose(g_w0[out.value > 0], 1.0 / 0.75 / out.value.size)
