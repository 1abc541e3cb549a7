"""GCN encoder, dot-product link scoring, pre-training, and Hits@K.

The encoder is a plain layered propagate-transform-ReLU stack; the link
predictor is the inner product of the two endpoint embeddings. Training is
minibatched over positive edges with fresh uniform negatives every epoch,
model selection by validation Hits@K with early stopping.

gcn_layers is the program's one such stack, in plain numpy with its
backward. It propagates over a symmetric Csr (gcn_forward, one tape record
for the whole stack, and the generator's one-layer encoder) or over dense
normalized adjacencies: co-tuning runs it on each generated block, one
[k, m, m] stack of same-size blocks at a time, with normalize_dense_adjacency,
so the caller can record a whole batch of blocks as one tape op.

score_pairs is the one link score, for the pre-training loss and every
Hits@K: one tape record per pair list, so a pre-training step records 5 ops
(gcn_forward, a score_pairs per side, their concatenation and the loss).
Its forward runs in slices of as many pairs as there are nodes, and the
propagation (Csr.matmul_dense) in chunks of at most that many entries, so
no temporary of a full-graph step grows with pairs x width or entries x
width: its memory follows the node count.
"""

import copy
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import InputError, NumericError, require_finite, require_schedule
from .graphs import Csr, Graph, normalize_adjacency
from .rng import stream_rng
from .splits import DatasetSplit, sample_negatives


@dataclass
class GcnParams:
    """Per-layer weights and biases; the last layer is the embedding head
    consumed by the parameter-free dot-product predictor."""

    weights: list
    biases: list
    dropout: float
    hidden: int

    def named(self):
        out = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"gnn.w{i}"] = w
            out[f"gnn.b{i}"] = b
        return out

    def copy(self):
        return copy.deepcopy(self)

    def meta(self):
        return {"meta.dropout": np.array([self.dropout]),
                "meta.hidden": np.array([float(self.hidden)])}

    @staticmethod
    def from_named(named):
        layers = sum(1 for k in named if k.startswith("gnn.w"))
        if layers == 0:
            raise InputError("checkpoint holds no encoder weights")
        axes = {}
        for i in range(layers):
            axes[f"gnn.w{i}"] = (None if i == 0 else "hidden", "hidden")
            axes[f"gnn.b{i}"] = ("hidden",)
        ad.require_shapes(named, axes, {"meta.hidden": "hidden"})
        dropout = float(named["meta.dropout"][0])
        if not 0.0 <= dropout < 1.0:  # TrainConfig's rule
            raise InputError(f"checkpoint entry 'meta.dropout' is {dropout:g}, not in [0, 1)")
        return GcnParams(weights=[named[f"gnn.w{i}"] for i in range(layers)],
                         biases=[named[f"gnn.b{i}"] for i in range(layers)],
                         dropout=dropout, hidden=int(named["meta.hidden"][0]))


@dataclass
class TrainConfig:
    epochs: int = 1000
    patience: int = 20
    lr: float = 1e-3
    dropout: float = 0.1
    batch_size: int = 0  # 0 = full batch
    seed: int = 0
    eval_k: int = 20

    def __post_init__(self):
        require_finite("lr", self.lr, minimum=0)
        require_schedule(self.epochs, self.patience, self.batch_size, min_epochs=1)
        if self.eval_k < 1:
            raise InputError("eval_k must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise InputError(f"dropout must be in [0, 1), got {self.dropout}")


def init_gcn_params(d_in, hidden, layers, dropout, *, rng):
    """Glorot-initialized stack d_in -> hidden -> ... -> hidden."""
    if layers < 1:
        raise InputError("layer count must be >= 1")
    if hidden < 1:
        raise InputError(f"hidden width must be >= 1, got {hidden}")
    dims = [d_in] + [hidden] * layers
    weights, biases = [], []
    for a, b in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (a + b))
        weights.append(rng.uniform(-bound, bound, size=(a, b)))
        biases.append(np.zeros(b))
    return GcnParams(weights=weights, biases=biases, dropout=dropout, hidden=hidden)


def normalize_dense_adjacency(a):
    """D^-1/2 (A + I) D^-1/2 of one dense weighted block, with its backward.

    a is one [m, m] block or a [k, m, m] stack of them; every slice comes out
    as that block alone would. Returns (prop, vjp): vjp(g) maps the gradient
    of prop to that of a.
    """
    n = a.shape[-1]
    m = a + np.eye(n)
    d = m.sum(axis=-1)
    dinv = np.exp(np.log(d) * -0.5)
    row = dinv[..., None, :]
    col = dinv[..., :, None]
    scaled = m * row  # column scaling
    prop = scaled * col  # row scaling

    def vjp(g):
        g_scaled = g * col
        g_dinv = (g * scaled).sum(axis=-1) + (g_scaled * m).sum(axis=-2)
        g_d = g_dinv * dinv * -0.5 / d
        return g_scaled * row + g_d[..., :, None]

    return prop, vjp


def gcn_forward(params, a_norm: Csr, x, rng=None, leaves=None) -> ad.Tensor:
    """Embeddings for every node as one tape record; pass tape leaves to make
    it differentiable in the parameters (never in x).

    Dropout runs between layers only while training, which passes its rng;
    the masks are drawn up front, in layer order.
    """
    if getattr(x, "tape", None) is not None:
        raise InputError("gcn_forward does not differentiate its features")
    x = ad.as_tensor(x).value
    named = leaves if leaves is not None else params.named()
    tensors = [ad.as_tensor(named[k]) for k in params.named()]
    weights = [t.value for t in tensors[0::2]]
    order = a_norm.shape[0]
    if order != x.shape[0]:
        raise InputError(f"adjacency order {order} != feature rows {x.shape[0]}")
    if weights[0].shape[0] != x.shape[1]:
        raise InputError(f"'gnn.w0' has {weights[0].shape[0]} rows, not the "
                         f"{x.shape[1]} feature columns")
    dropout = []
    if rng is not None and params.dropout > 0.0:
        keep = 1.0 - params.dropout
        dropout = [(rng.random((order, w.shape[1])) >= params.dropout) / keep
                   for w in weights[:-1]]
    h, vjp = gcn_layers(weights, [t.value for t in tensors[1::2]], a_norm, x, dropout)

    def back(g, _):
        _, g_z, g_params = vjp(g)
        g_params[0] = x.T @ g_z
        return g_params

    return ad.emit("gcn_forward", h, tensors, back)


def gcn_layers(weights, biases, prop, x, dropout=(), relu_last=False):
    """The propagate-transform-ReLU stack in plain numpy, with its backward.

    prop is a symmetric Csr over x's [n, d] rows, one block's dense [m, m]
    matrix over its [m, d] rows, or a [k, m, m] stack of same-size blocks
    over [k, m, d] rows, each slice computed as that block alone would be.
    dropout holds the mask applied after each hidden layer's ReLU (none if
    empty); relu_last rectifies the last layer too. Returns (out, vjp):
    vjp(g, need_prop=False, need_params=True) gives the gradient of a dense
    prop (None unless need_prop), that of the first layer's product
    x @ weights[0] (None without need_params), and the list of per-slice
    parameter gradients in GcnParams.named() order, all None without
    need_params and the first weight's always: the caller forms it as x^T
    times the product's gradient, so x may be a temporary gather.
    """
    sparse = isinstance(prop, Csr)
    prop_t = prop if sparse else np.swapaxes(prop, -1, -2)  # a Csr is symmetric
    count = len(weights)
    inputs, zs, masks = [None], [], []
    h = x
    for i in range(count):
        z = h @ weights[i]
        if not sparse:  # only a dense prop has a gradient, which needs z
            zs.append(z)
        h = prop @ z + biases[i]
        if i < count - 1 or relu_last:
            masks.append(h > 0)
            h = h * masks[i]
        if i < count - 1:
            if dropout:
                h = h * dropout[i]
            inputs.append(h)

    def vjp(g, need_prop=False, need_params=True):
        g_prop = None
        g_params = [None] * (2 * count)
        for i in reversed(range(count)):
            if i < count - 1 and dropout:
                g = g * dropout[i]
            if i < len(masks):
                g = g * masks[i]
            if need_params:
                g_params[2 * i + 1] = g.sum(axis=-2)
            if need_prop:
                g_p = g @ np.swapaxes(zs[i], -1, -2)
                g_prop = g_p if g_prop is None else g_prop + g_p
            if i == 0:
                return g_prop, prop_t @ g if need_params else None, g_params
            g_z = prop_t @ g
            if need_params:
                g_params[2 * i] = np.swapaxes(inputs[i], -1, -2) @ g_z
            g = g_z @ weights[i].T

    return h, vjp


def score_pairs(h, pairs) -> ad.Tensor:
    """Dot-product logit per candidate link; its sigmoid is the edge probability.

    One tape record that keeps only the pair ids and h's value. The forward
    scores h.shape[0] pairs at a time, so its temporaries are no larger than
    h. The backward re-reads each pair's other endpoint from h and scatters
    g * h[other] into the endpoint's rows. h is listed twice as the op's
    inputs, v's side first, so the tape adds the sides, and the calls, in
    the order of the gather, multiply and sum records this op replaced.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    h = ad.as_tensor(h)
    if pairs.size and (pairs.min() < 0 or pairs.max() >= h.shape[0]):
        raise InputError(f"pair id out of range for {h.shape[0]} embeddings")
    u, v = pairs[:, 0].copy(), pairs[:, 1].copy()
    hv = h.value

    def scatter(ends, others, g):
        return ad.scatter_rows(ends, (col[others] * g for col in hv.T), hv.shape)

    logits = np.empty(u.size)
    step = max(hv.shape[0], 1)
    for at in range(0, u.size, step):
        part = slice(at, at + step)
        logits[part] = (hv[u[part]] * hv[v[part]]).sum(axis=1)
    return ad.emit("score_pairs", logits, [h, h],
                   lambda g, _: (scatter(v, u, g), scatter(u, v, g)))


def lp_loss(pos_logits, neg_logits) -> ad.Tensor:
    """Mean BCE over all samples, targets 1 for positives and 0 for negatives.

    Either side may be empty, not both.
    """
    parts, targets = [], []
    for logits, t in ((pos_logits, 1.0), (neg_logits, 0.0)):
        logits = ad.as_tensor(logits)
        if logits.value.size == 0:
            continue
        parts.append(logits)
        targets.append(np.full(logits.value.shape[0], t))
    if not parts:
        raise InputError("lp_loss needs at least one positive or negative logit")
    joined = parts[0] if len(parts) == 1 else ad.concat(parts, axis=0)
    return ad.bce_with_logits(joined, np.concatenate(targets))


def hits_at_k(pos_scores, neg_scores, k) -> float:
    """Fraction of positives strictly above the k-th highest negative."""
    pos = np.asarray(pos_scores, dtype=np.float64).reshape(-1)
    neg = np.asarray(neg_scores, dtype=np.float64).reshape(-1)
    if k < 1:
        raise InputError("k must be >= 1")
    if neg.size < k:
        raise InputError(f"need at least k={k} negative scores, got {neg.size}")
    if pos.size == 0:
        raise InputError("no positive scores to rank")
    threshold = np.partition(neg, neg.size - k)[neg.size - k]
    return float(np.mean(pos > threshold))


def evaluate_hits(params, a_norm, x, pos_edges, neg_edges, k) -> float:
    h = gcn_forward(params, a_norm, x).value
    return hits_at_k(score_pairs(h, pos_edges).value, score_pairs(h, neg_edges).value, k)


@dataclass
class GnnPretrainResult:
    params: GcnParams
    trace: list
    best_epoch: int
    best_valid: float
    test_hits: float


def _train_batch(params, a_norm, x, pos, neg, state, rng) -> float:
    """One Adam step of the link loss on a batch of positives and negatives;
    the loss, or a non-finite loss and no step.

    The step's tape dies when this returns, before the next batch runs.
    """
    leaves = ad.Tape().leaves(params.named())
    h = gcn_forward(params, a_norm, x, rng=rng, leaves=leaves)
    loss = lp_loss(score_pairs(h, pos), score_pairs(h, neg))
    if np.isfinite(loss.value):
        ad.adam_step(state, params.named(), ad.backward(loss, wrt=leaves).named(leaves))
    return loss.item()


def pretrain_gnn(
    g: Graph,
    split: DatasetSplit,
    cfg: TrainConfig,
    hidden,
    layers,
    eval_norm: Csr = None,
) -> GnnPretrainResult:
    """Train on the observed adjacency; return the best-validation params.

    g must be the training-visible graph. Gradient steps see only train
    positives plus negatives freshly sampled from g's non-edges each epoch.
    Hits@K is scored on eval_norm, a normalized adjacency that defaults to
    g's own: validation every epoch for selection by ad.train_epochs (higher
    is better), then test once for the selected params.
    """
    d_in = g.features.shape[1]
    init_rng = stream_rng(cfg.seed, "init")
    params = init_gcn_params(d_in, hidden=hidden, layers=layers,
                             dropout=cfg.dropout, rng=init_rng)
    a_norm = normalize_adjacency(g.adjacency)
    eval_norm = a_norm if eval_norm is None else eval_norm
    state = ad.AdamState(lr=cfg.lr)
    pos_all = split.train_pos

    def run_epoch(epoch):
        losses = []
        batches = ad.shuffled_batches(cfg.seed, f"shuffle.e{epoch}", len(pos_all), cfg.batch_size)
        for bi, (_, order) in enumerate(batches):
            pos = pos_all[order]
            neg = sample_negatives(
                g, pos.shape[0], rng=stream_rng(cfg.seed, f"negatives.e{epoch}.b{bi}")
            )
            loss = _train_batch(params, a_norm, g.features, pos, neg, state,
                                stream_rng(cfg.seed, f"dropout.e{epoch}.b{bi}"))
            if not np.isfinite(loss):
                raise NumericError(f"training loss diverged at epoch {epoch}")
            losses.append(loss)
        return {"train_loss": float(np.mean(losses)),
                "valid_hits": evaluate_hits(params, eval_norm, g.features, split.valid_pos,
                                            split.valid_neg, cfg.eval_k)}

    best, row, trace = ad.train_epochs(cfg.epochs, cfg.patience, run_epoch, params.copy,
                                       "valid_hits")
    test_hits = evaluate_hits(
        best, eval_norm, g.features, split.test_pos, split.test_neg, cfg.eval_k
    )
    return GnnPretrainResult(params=best, trace=trace, best_epoch=row["epoch"],
                             best_valid=row["valid_hits"], test_hits=test_hits)
