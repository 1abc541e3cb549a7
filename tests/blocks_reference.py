"""Per-block decoder, reconstruction loss and generated-graph predictor, kept as oracles.

`generator.decode_logits`, `generator.recon_loss` and `cotrain.predictor_loss`
each put one record per batch on the tape and run one stacked numpy product
per distinct block size, forward and backward; `gnn.gcn_forward` and
`gnn.score_pairs` put one record per call. These are the implementations
they replaced: chains of tape ops per block, per layer or per pair list.
`encode_semi_implicit` is the encoder as it was before its draws shared one
input array and its hidden layer became one record: a fresh [features |
label | noise] concatenation, a plain matmul, propagation, bias and ReLU per
draw. The ops only they used (`reshape`, `slice_rows`, `transpose`,
`sigmoid`, `log`, `sparse_matmul`, `relu`, `dropout`) and the tape-op forms
of `gnn.normalize_dense_adjacency` and of `gnn.gcn_forward`'s sparse and
dense branches moved here with them, as did the weighted and "sum"/"none"
forms of `autodiff.bce_with_logits`. Losses and gradients must match these
byte for byte.

`use_reference_blocks()` swaps the six functions into the package, so the
package's own `pretrain_gnn`, `evaluate_hits`, `sivi_elbo`,
`first_draw_logits` and `cotrain_losses` run the old per-block, per-layer
path.
"""

import contextlib

import numpy as np

from counterlink import autodiff as ad
from counterlink import cotrain, generator, gnn
from counterlink.errors import InputError, NumericError, ShapeError
from counterlink.gnn import lp_loss
from counterlink.graphs import Csr, NEGATIVE, POSITIVE


def reshape(a, shape) -> ad.Tensor:
    a = ad.as_tensor(a)
    try:
        out = a.value.reshape(shape)
    except ValueError:
        raise ShapeError("reshape", f"{a.shape} -> {shape}")
    src = a.shape
    return ad.emit("reshape", out.copy(), [a], lambda g, _: (g.reshape(src),))


def slice_rows(a, start, stop) -> ad.Tensor:
    a = ad.as_tensor(a)
    n = a.shape[0]
    if not (0 <= start <= stop <= n):
        raise ShapeError("slice_rows", f"[{start}:{stop}] of {n} rows")
    av = a.value

    def back(g, _):
        full = np.zeros_like(av)
        full[start:stop] = g
        return (full,)

    return ad.emit("slice_rows", av[start:stop].copy(), [a], back)


def transpose(a) -> ad.Tensor:
    a = ad.as_tensor(a)
    if a.value.ndim != 2:
        raise ShapeError("transpose", f"expected 2-d, got {a.shape}")
    return ad.emit("transpose", a.value.T.copy(), [a], lambda g, _: (g.T,))


def sigmoid(a) -> ad.Tensor:
    a = ad.as_tensor(a)
    out = ad.stable_sigmoid(a.value, np.exp(-np.abs(a.value)))
    return ad.emit("sigmoid", out, [a], lambda g, _: (g * out * (1.0 - out),))


def log(a) -> ad.Tensor:
    a = ad.as_tensor(a)
    av = a.value
    return ad.emit("log", np.log(av), [a], lambda g, _: (g / av,))


def sparse_matmul(csr, x) -> ad.Tensor:
    """Symmetric CSR (n x n, non-differentiable) times dense (n x d); the
    backward multiplies by the same matrix, its own transpose."""
    x = ad.as_tensor(x)
    if x.value.ndim != 2 or csr.shape[1] != x.shape[0]:
        raise ShapeError("sparse_matmul", f"{csr.shape} @ {x.shape}")
    out = csr.matmul_dense(x.value)
    return ad.emit("sparse_matmul", out, [x], lambda g, _: (csr.matmul_dense(g),))


def relu(a) -> ad.Tensor:
    a = ad.as_tensor(a)
    mask = a.value > 0
    return ad.emit("relu", a.value * mask, [a], lambda g, _: (g * mask,))


def dropout(a, rate, rng) -> ad.Tensor:
    if not 0.0 <= rate < 1.0:
        raise InputError(f"dropout rate must be in [0, 1), got {rate}")
    a = ad.as_tensor(a)
    if rate == 0.0:
        return a
    mask = (rng.random(a.shape) >= rate) / (1.0 - rate)
    return ad.emit("dropout", a.value * mask, [a], lambda g, _: (g * mask,))


def bce_with_logits(logits, targets, weights=None, reduction="mean") -> ad.Tensor:
    """Numerically stable binary cross-entropy on logits, general form.

    targets (and optional weights) are constants with the same shape as the
    logits; reduction is "mean", "sum", or "none". `autodiff.bce_with_logits`
    keeps only the unweighted mean.
    """
    logits = ad.as_tensor(logits)
    lv = logits.value
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != lv.shape:
        raise ShapeError("bce_with_logits", f"logits {lv.shape} vs targets {t.shape}")
    w = None
    if weights is not None:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != lv.shape:
            raise ShapeError("bce_with_logits", f"logits {lv.shape} vs weights {w.shape}")
    e = np.exp(-np.abs(lv))
    loss = np.maximum(lv, 0.0) - lv * t + np.log1p(e)
    if w is not None:
        loss = loss * w
    if reduction == "none":
        out = loss
    elif reduction == "sum":
        out = loss.sum()
    elif reduction == "mean":
        out = loss.mean()
    else:
        raise InputError(f"unknown reduction {reduction!r}")

    base = ad.stable_sigmoid(lv, e) - t
    if w is not None:
        base = base * w

    def back(g, _):
        if reduction == "mean":
            return (g * base / lv.size,)
        return (g * base,)

    return ad.emit("bce_with_logits", out, [logits], back)


def decode_logits(h, batch):
    """Per-block inner-product logit matrices; nothing crosses blocks."""
    block_sizes = batch.block_sizes
    if int(np.sum(block_sizes)) != h.shape[0]:
        raise InputError(
            f"block sizes sum to {int(np.sum(block_sizes))} but h has {h.shape[0]} rows"
        )
    out = []
    at = 0
    for m in block_sizes:
        m = int(m)
        z = slice_rows(h, at, at + m)
        out.append(ad.matmul(z, transpose(z)))
        at += m
    return out


def recon_loss(logits_blocks, batch) -> ad.Tensor:
    """Mean over blocks of per-node sparsity-weighted BCE against the truth.

    Positive entries are upweighted by the block's non-edge/edge ratio and
    the diagonal is masked out. Each block's weighted sum is divided by its
    node count, matching the per-node KL normalization so neither term
    swamps the other. Single-node blocks contribute zero.
    """
    adj_blocks = batch.block_adjacencies()
    if len(logits_blocks) != len(adj_blocks):
        raise InputError("one adjacency per logit block required")
    total = None
    for logits, adj in zip(logits_blocks, adj_blocks):
        m = adj.shape[0]
        if m <= 1:
            continue
        pairs = m * (m - 1)
        edges = float(adj.sum())
        pos_w = (pairs - edges) / edges if edges > 0 else 1.0
        weights = np.where(adj > 0, pos_w, 1.0)
        np.fill_diagonal(weights, 0.0)
        term = ad.mul(
            bce_with_logits(logits, adj, weights=weights, reduction="sum"),
            ad.Tensor(1.0 / m),
        )
        total = term if total is None else ad.add(total, term)
    if total is None:
        return ad.Tensor(0.0)
    return ad.mul(total, ad.Tensor(1.0 / len(logits_blocks)))


def normalize_dense_adjacency(a) -> ad.Tensor:
    """Differentiable D^-1/2 (A + I) D^-1/2 for generated weighted blocks."""
    a = ad.as_tensor(a)
    n = a.shape[0]
    m = ad.add(a, ad.Tensor(np.eye(n)))
    d = ad.tsum(m, axis=1)
    dinv = ad.exp(ad.mul(log(d), ad.Tensor(-0.5)))
    scaled = ad.mul(m, dinv)  # column scaling via broadcast
    return ad.mul(scaled, reshape(dinv, (n, 1)))  # row scaling


def gcn_forward(params, a_norm, x, rng=None, leaves=None) -> ad.Tensor:
    """Embeddings for every node; pass tape leaves to make it differentiable.

    a_norm is either a Csr (fixed propagation) or a Tensor (generated,
    differentiable, dense). Dropout runs between layers only while training,
    which passes its rng.
    """
    named = leaves if leaves is not None else params.named()
    h = ad.as_tensor(x)
    n = h.shape[0]
    order = a_norm.shape[0]
    if order != n:
        raise InputError(f"adjacency order {order} != feature rows {n}")
    sparse = isinstance(a_norm, Csr)
    layers = len(params.weights)
    for i in range(layers):
        z = ad.matmul(h, named[f"gnn.w{i}"])
        prop = sparse_matmul(a_norm, z) if sparse else ad.matmul(a_norm, z)
        h = ad.add(prop, named[f"gnn.b{i}"])
        if i < layers - 1:
            h = relu(h)
            if rng is not None:
                h = dropout(h, params.dropout, rng)
    return h


def score_pairs(h, pairs) -> ad.Tensor:
    """Dot-product logit per candidate link as four tape records: a gather of
    each endpoint's rows, their product and its row sums."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    h = ad.as_tensor(h)
    if pairs.size and (pairs.min() < 0 or pairs.max() >= h.shape[0]):
        raise InputError(f"pair id out of range for {h.shape[0]} embeddings")
    hu = ad.gather_rows(h, pairs[:, 0])
    hv = ad.gather_rows(h, pairs[:, 1])
    return ad.tsum(ad.mul(hu, hv), axis=1)


def predictor_loss(gnn_params, batch, logit_blocks, gamma: float, leaves=None):
    """(classification loss, mean generated CN of the targets) of the predictor
    run per block over its thresholded edge probabilities; the batch's link
    labels are the BCE targets."""
    logits, cns = [], []
    for block, logit_block in zip(batch.blocks, logit_blocks):
        u, v = block.target
        p = sigmoid(logit_block)
        mask = (p.value >= gamma).astype(np.float64)
        np.fill_diagonal(mask, 0.0)
        prop = normalize_dense_adjacency(ad.mul(p, ad.Tensor(mask)))
        emb = gcn_forward(gnn_params, prop, block.graph_features[block.node_map],
                          leaves=leaves)
        hu = ad.gather_rows(emb, np.array([u]))
        hv = ad.gather_rows(emb, np.array([v]))
        logits.append(ad.tsum(ad.mul(hu, hv), axis=1))
        cns.append(float((mask[u] * mask[v]).sum()))
    joined = ad.concat(logits, axis=0)
    labels = batch.batch_labels
    pos_idx = np.nonzero(labels == POSITIVE)[0]
    neg_idx = np.nonzero(labels == NEGATIVE)[0]
    lp = lp_loss(
        ad.gather_rows(joined, pos_idx) if pos_idx.size else None,
        ad.gather_rows(joined, neg_idx) if neg_idx.size else None,
    )
    if not np.isfinite(lp.value):
        raise NumericError("classification loss is not finite")
    return lp, float(np.mean(cns))


def encode_semi_implicit(params, batch, spec, rng, leaves=None) -> list:
    named = leaves if leaves is not None else params.named()
    shape = (batch.total_nodes, spec.noise_dim)
    cols = [batch.stacked_features(), batch.stacked_labels().reshape(-1, 1)]
    a_norm = batch.normalized_adjacency()
    moments = []
    for _ in range(spec.num_psi):
        eps = np.zeros(shape) if spec.zero_noise else rng.standard_normal(shape)
        x_in = np.concatenate([*cols, eps], axis=1)
        z = ad.matmul(x_in, named["ggm.w_in"])
        hid = relu(ad.add(sparse_matmul(a_norm, z), named["ggm.b_in"]))
        mu = ad.add(ad.matmul(hid, named["ggm.w_mu"]), named["ggm.b_mu"])
        log_var = ad.clip(ad.add(ad.matmul(hid, named["ggm.w_lv"]), named["ggm.b_lv"]),
                          -generator.LOG_VAR_CLAMP, generator.LOG_VAR_CLAMP)
        moments.append((mu, log_var))
    return moments


@contextlib.contextmanager
def use_reference_blocks():
    """Run the package on the per-block functions above until the block exits."""
    swaps = [(generator, "encode_semi_implicit", encode_semi_implicit),
             (generator, "decode_logits", decode_logits),
             (generator, "recon_loss", recon_loss),
             (cotrain, "predictor_loss", predictor_loss),
             (gnn, "gcn_forward", gcn_forward),
             (gnn, "score_pairs", score_pairs)]
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in swaps]
    try:
        for mod, name, fn in swaps:
            setattr(mod, name, fn)
        yield
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)
