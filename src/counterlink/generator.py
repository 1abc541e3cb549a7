"""Semi-implicit variational auto-encoder over labeled subgraph batches.

The encoder is a two-stage GCN over the block-diagonal batch adjacency whose
node input is [features || endpoint label || injected noise]; mixing noise
makes the posterior semi-implicit, and averaging the analytic Gaussian KL
over the mixing draws gives the Monte-Carlo surrogate used in the training
objective. The decoder is a parameter-free inner product applied per block,
so no probability mass ever exists between distinct samples. Its logits are
packed into one vector, block after block (the batch's packed_layout), and
the decoder and the reconstruction loss each put one record per batch on the
tape. Inside, they run one stacked [k, m, ...] product or sum per distinct
block size m (the batch's size_groups), not one per block, and every block's
values come out with the bytes a block-by-block computation gives.
Setting one mixing draw and zero noise width collapses the whole stack to a
plain variational graph auto-encoder. The mixing draws are independent, so a
caller that reads one draw (co-tuning's predictor step) encodes only that
one and just draws the others' noise to keep the random stream aligned.
The draws differ only in their noise columns, so one encoder call builds one
[features | label | noise] input, and each draw's hidden layer, one
gnn.gcn_layers layer recorded as one tape op, writes its own noise there,
forward and backward.

Every block holds its link's endpoints as local nodes 0 and 1, so none has
fewer than two nodes. Generated samples keep their block's node count and
link label; node features stay on the batch the samples were drawn from. The
threshold removes low-confidence edges, which keeps generation from densifying.

A sample dump is read back block by block; each edge must have two distinct
ends inside its block and a probability that is a JSON number in [0, 1].
"""

import copy
import json
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .errors import (ConfigError, InputError, NumericError, ShapeError, ValidationError,
                     require_extraction, require_finite, require_schedule)
from .gnn import gcn_layers
from .graphs import (Edge, Graph, LabeledSubgraphBatch, POSITIVE, extract_for_links,
                     make_batch, once_per_batch)
from .rng import stream_rng
from .splits import DatasetSplit

LOG_VAR_CLAMP = 10.0  # exp overflow guard during adversarial ascent


@dataclass
class SiviParams:
    """Encoder weights; mu and log-variance heads share the hidden trunk.

    The decoder has no learnable weights, so this is the whole model.
    """

    w_in: np.ndarray
    b_in: np.ndarray
    w_mu: np.ndarray
    b_mu: np.ndarray
    w_lv: np.ndarray
    b_lv: np.ndarray
    hidden: int
    zdim: int
    noise_dim: int

    def named(self):
        return {
            "ggm.w_in": self.w_in,
            "ggm.b_in": self.b_in,
            "ggm.w_mu": self.w_mu,
            "ggm.b_mu": self.b_mu,
            "ggm.w_lv": self.w_lv,
            "ggm.b_lv": self.b_lv,
        }

    def meta(self):
        return {
            "meta.hidden": np.array([float(self.hidden)]),
            "meta.zdim": np.array([float(self.zdim)]),
            "meta.noise_dim": np.array([float(self.noise_dim)]),
        }

    def copy(self):
        return copy.deepcopy(self)

    @staticmethod
    def from_named(named):
        ad.require_shapes(named, {"ggm.w_in": (None, "hidden"), "ggm.b_in": ("hidden",),
                                  "ggm.w_mu": ("hidden", "zdim"), "ggm.b_mu": ("zdim",),
                                  "ggm.w_lv": ("hidden", "zdim"), "ggm.b_lv": ("zdim",)},
                          {"meta.hidden": "hidden", "meta.zdim": "zdim"})
        noise_dim = float(named["meta.noise_dim"][0])
        if noise_dim < 0 or noise_dim != int(noise_dim):
            raise InputError(f"checkpoint entry 'meta.noise_dim' is {noise_dim:g}, "
                             "not an integer >= 0")
        return SiviParams(
            w_in=named["ggm.w_in"],
            b_in=named["ggm.b_in"],
            w_mu=named["ggm.w_mu"],
            b_mu=named["ggm.b_mu"],
            w_lv=named["ggm.w_lv"],
            b_lv=named["ggm.b_lv"],
            hidden=int(named["meta.hidden"][0]),
            zdim=int(named["meta.zdim"][0]),
            noise_dim=int(noise_dim),
        )


@dataclass(frozen=True)
class NoiseSpec:
    """Width of injected noise and number of mixing draws; zero_noise feeds
    zeros instead of N(0, I) draws and leaves the rng untouched."""

    noise_dim: int = 8
    num_psi: int = 3
    zero_noise: bool = False

    def __post_init__(self):
        if self.num_psi < 1:
            raise InputError("num_psi must be >= 1")
        if self.noise_dim < 0:
            raise InputError("noise_dim must be >= 0")
        if self.noise_dim == 0 and self.num_psi > 1:
            raise ConfigError(
                "noise_dim=0 with num_psi>1 would mix identical draws; "
                "use num_psi=1 for the plain variational reduction"
            )


@dataclass
class GeneratedSample:
    """Per-block edge probabilities; thresholded_adj marks the positive ones."""

    edge_probs: list
    block_sizes: np.ndarray
    link_labels: np.ndarray
    gamma: float = 0.0

    @property
    def num_blocks(self):
        return len(self.edge_probs)

    @property
    def thresholded_adj(self):
        return [(p > 0).astype(np.float64) for p in self.edge_probs]

    def edge_count(self):
        """Undirected generated edge count across blocks."""
        return sum(int(np.count_nonzero(np.triu(p, 1) > 0)) for p in self.edge_probs)


def init_sivi_params(d_in, hidden=32, zdim=16, *, noise_dim, rng) -> SiviParams:
    full_in = d_in + 1 + noise_dim  # features + label channel + noise

    def glorot(a, b):
        bound = np.sqrt(6.0 / (a + b))
        return rng.uniform(-bound, bound, size=(a, b))

    return SiviParams(
        w_in=glorot(full_in, hidden),
        b_in=np.zeros(hidden),
        w_mu=glorot(hidden, zdim),
        b_mu=np.zeros(zdim),
        w_lv=glorot(hidden, zdim),
        b_lv=np.zeros(zdim),
        hidden=hidden,
        zdim=zdim,
        noise_dim=noise_dim,
    )


def _encoder_layer(x_in, col, eps, a_norm, w, b):
    """relu(a_norm (x_in @ w) + b) with one draw's noise eps written into
    x_in's columns from col on (none under zero noise), as one tape record.

    The draws share x_in and each writes its own noise, so the backward
    writes this draw's noise back before it forms x_in^T @ g. Every product
    sees the bytes and layout a fresh [features | label | noise] array has.
    """
    w, b = ad.as_tensor(w), ad.as_tensor(b)
    if eps is not None:
        x_in[:, col:] = eps
    hid, vjp = gcn_layers([w.value], [b.value], a_norm, x_in, relu_last=True)

    def back(g, _):
        _, g_z, (_, g_b) = vjp(g)
        if eps is not None:
            x_in[:, col:] = eps
        return x_in.T @ g_z, g_b

    return ad.emit("encoder_layer", hid, [w, b], back)


def encode_semi_implicit(
    params: SiviParams,
    batch: LabeledSubgraphBatch,
    spec: NoiseSpec,
    rng,
    leaves=None,
) -> list:
    """(mu, log_var) per mixing draw over the block-diagonal batch.

    Each draw injects fresh N(0, I) noise columns (zeros under
    spec.zero_noise) into the constant node input, which is built once per
    call: the draws differ only in those columns.
    """
    if spec.noise_dim != params.noise_dim:
        raise ConfigError(
            f"noise_dim mismatch: spec {spec.noise_dim} vs params {params.noise_dim}"
        )
    shape = (batch.total_nodes, spec.noise_dim)
    named = leaves if leaves is not None else params.named()
    feats = batch.stacked_features()
    col = feats.shape[1] + 1
    x_shape = (batch.total_nodes, col + spec.noise_dim)
    if x_shape[1] != named["ggm.w_in"].shape[0]:  # before x_in is allocated
        raise ShapeError("matmul", f"{x_shape} @ {named['ggm.w_in'].shape}")
    x_in = np.zeros(x_shape)
    x_in[:, : col - 1] = feats
    x_in[:, col - 1] = batch.stacked_labels()
    a_norm = batch.normalized_adjacency()

    moments = []
    for _ in range(spec.num_psi):
        eps = None if spec.zero_noise else rng.standard_normal(shape)
        hid = _encoder_layer(x_in, col, eps, a_norm, named["ggm.w_in"], named["ggm.b_in"])
        # Heads are linear, not convolutional: a second propagation round
        # smooths dense blocks into near-constant latents, which destroys
        # the per-pair separability the inner-product decoder relies on.
        mu = ad.add(ad.matmul(hid, named["ggm.w_mu"]), named["ggm.b_mu"])
        log_var = ad.clip(
            ad.add(ad.matmul(hid, named["ggm.w_lv"]), named["ggm.b_lv"]),
            -LOG_VAR_CLAMP,
            LOG_VAR_CLAMP,
        )
        moments.append((mu, log_var))
    return moments


def reparameterize(moments, rng) -> list:
    """Latents h = mu + eps * exp(0.5 log var) per (mu, log_var) draw.

    One standard_normal call per draw fills eps row by row, so it holds the
    same values, and leaves rng at the same place, as drawing block by block.
    """
    hs = []
    for mu, lv in moments:
        eps = rng.standard_normal(mu.shape)
        std = ad.exp(ad.mul(lv, ad.Tensor(0.5)))
        hs.append(ad.add(mu, ad.mul(ad.Tensor(eps), std)))
    return hs


def decode_logits(h, batch) -> ad.Tensor:
    """Every block's inner-product logits z z^T, packed; nothing crosses blocks.

    The result holds each block's m x m logits in the batch's packed_layout
    order. It is one tape record for the whole batch; forward and backward
    run one stacked product per distinct block size.
    """
    total = batch.total_nodes
    if total != h.shape[0]:
        raise InputError(f"block sizes sum to {total} but h has {h.shape[0]} rows")
    hv = h.value
    out = np.empty(int(batch.packed_layout()[0][-1]))
    zts = []
    for grp in batch.size_groups():
        z = hv[grp.rows].reshape(grp.blocks.size, grp.m, -1)
        # z @ z^T of one buffer would take numpy's symmetric-product path,
        # which sums in another order; the transposed copy keeps a plain
        # matrix product.
        zt = z.transpose(0, 2, 1).copy()
        out[grp.cells] = (z @ zt).ravel()
        zts.append(zt)

    def back(g, _):
        g_h = np.empty_like(hv)
        for grp, zt in zip(batch.size_groups(), zts):
            z = hv[grp.rows].reshape(zt.shape[0], grp.m, -1)
            g_z = g[grp.cells].reshape(zt.shape[0], grp.m, grp.m)
            g_zs = g_z @ zt.transpose(0, 2, 1)
            g_zs += (z.transpose(0, 2, 1) @ g_z).transpose(0, 2, 1)
            g_h[grp.rows] = g_zs.reshape(-1, hv.shape[1])
        return (g_h,)

    return ad.emit("decode_logits", out, [h], back)


def decode_node_aware(h, batch) -> GeneratedSample:
    """Edge probabilities per block of the batch from raw latents (no tape
    needed); link labels come from the batch."""
    h = ad.as_tensor(h).value
    if batch.total_nodes != h.shape[0]:
        raise InputError(f"block sizes sum to {batch.total_nodes} but h has {h.shape[0]} rows")
    probs = []
    for at, m in zip(batch.offsets.tolist(), batch.block_sizes.tolist()):
        z = h[at : at + m]
        with np.errstate(over="ignore"):  # exp(-logit) is inf below -709: p is 0.0
            p = 1.0 / (1.0 + np.exp(-(z @ z.T)))
        np.fill_diagonal(p, 0.0)
        probs.append(p)
    return GeneratedSample(
        edge_probs=probs,
        block_sizes=batch.block_sizes,
        link_labels=batch.batch_labels,
    )


def kl_gaussian(mu, log_var) -> ad.Tensor:
    """Mean over nodes of the analytic KL to the unit Gaussian prior."""
    if mu.shape != log_var.shape:
        raise InputError(f"mu shape {mu.shape} != log_var shape {log_var.shape}")
    terms = ad.sub(ad.sub(ad.add(ad.square(mu), ad.exp(log_var)), ad.Tensor(1.0)), log_var)
    return ad.mul(ad.tmean(ad.tsum(terms, axis=1)), ad.Tensor(0.5))


@once_per_batch
def recon_targets(batch):
    """recon_loss's packed constants for one batch: the blocks' adjacencies
    as targets, and the weights, which upweight a block's edges by its
    non-edge/edge ratio and mask out every diagonal."""
    sizes = batch.block_sizes
    offsets, diagonal = batch.packed_layout()
    t = np.concatenate([b.local_adjacency.ravel() for b in batch.blocks])
    edges = np.add.reduceat(t, offsets[:-1])  # whole numbers: exact in any order
    pos_w = np.ones(sizes.size)
    np.divide(sizes * (sizes - 1) - edges, edges, out=pos_w, where=edges > 0)
    weights = np.where(t > 0, np.repeat(pos_w, sizes * sizes), 1.0)
    weights[diagonal] = 0.0
    return t, weights


def recon_loss(logits, batch) -> ad.Tensor:
    """Mean over blocks of per-node sparsity-weighted BCE against the truth.

    logits are decode_logits' packed blocks. Positive entries are upweighted
    by the block's non-edge/edge ratio and the diagonal is masked out. Each
    block's weighted sum is divided by its node count, matching the per-node
    KL normalization so neither term swamps the other. One tape record for
    the whole batch.
    """
    sizes = batch.block_sizes
    lv = logits.value
    t, weights = recon_targets(batch)
    if lv.shape != t.shape:
        raise InputError("one adjacency per logit block required")
    e = np.exp(-np.abs(lv))
    loss = (np.maximum(lv, 0.0) - lv * t + np.log1p(e)) * weights
    base = (ad.stable_sigmoid(lv, e) - t) * weights
    sums = np.zeros(sizes.size)
    for grp in batch.size_groups():
        sums[grp.blocks] = loss[grp.cells].reshape(grp.blocks.size, -1).sum(axis=1)
    # One block after another in batch order, as a block-by-block loop adds
    # them; a pairwise sum would change the last bits.
    total = np.add.accumulate(sums * (1.0 / sizes))[-1]
    scale = 1.0 / sizes.size

    def back(g, _):
        per_block = (g * scale) * (1.0 / sizes)
        return (np.repeat(per_block, sizes * sizes) * base,)

    return ad.emit("recon_loss", total * scale, [logits], back)


@dataclass
class ElboResult:
    loss: ad.Tensor
    kl: ad.Tensor
    logits: ad.Tensor  # the first draw's packed decoder logits


def sivi_elbo(
    params: SiviParams,
    batch: LabeledSubgraphBatch,
    spec: NoiseSpec,
    rng,
    leaves=None,
) -> ElboResult:
    """Negated Monte-Carlo evidence bound: weighted BCE plus mean KL.

    kl is the draw-averaged Gaussian KL and loss the draw-averaged BCE plus
    kl; minimizing it maximizes the bound.
    """
    moments = encode_semi_implicit(params, batch, spec, rng, leaves=leaves)
    hs = reparameterize(moments, rng)
    bce = kl = first_logits = None
    for (mu, lv), h in zip(moments, hs):
        logits = decode_logits(h, batch)
        if first_logits is None:
            first_logits = logits
        bce_j = recon_loss(logits, batch)
        kl_j = kl_gaussian(mu, lv)
        bce = bce_j if bce is None else ad.add(bce, bce_j)
        kl = kl_j if kl is None else ad.add(kl, kl_j)
    scale = ad.Tensor(1.0 / spec.num_psi)
    bce = ad.mul(bce, scale)
    kl = ad.mul(kl, scale)
    loss = ad.add(bce, kl)
    if not np.isfinite(loss.value):
        raise NumericError("generator objective is not finite")
    return ElboResult(loss=loss, kl=kl, logits=first_logits)


def first_draw_logits(params, batch, spec, rng):
    """sivi_elbo(..., leaves=None).logits without the bound, untaped.

    Only the first mixing draw is encoded and decoded. The other draws' noise
    and latents are drawn and dropped where sivi_elbo draws them, so the first
    draw's values and rng's end position are the same as there.
    """
    rest = spec.num_psi - 1
    moments = encode_semi_implicit(params, batch, replace(spec, num_psi=1), rng)
    if not spec.zero_noise:
        rng.standard_normal((rest, batch.total_nodes, spec.noise_dim))
    [h] = reparameterize(moments, rng)
    rng.standard_normal((rest, *h.shape))
    return decode_logits(h, batch)


def threshold_edges(sample: GeneratedSample, gamma) -> GeneratedSample:
    """Drop edge probabilities below gamma; survivors keep their value."""
    if not 0.0 <= gamma <= 1.0:
        raise InputError(f"gamma must be in [0, 1], got {gamma}")
    probs = []
    for p in sample.edge_probs:
        kept = p * (p >= gamma)
        np.fill_diagonal(kept, 0.0)
        probs.append(kept)
    return GeneratedSample(
        edge_probs=probs,
        block_sizes=sample.block_sizes.copy(),
        link_labels=sample.link_labels.copy(),
        gamma=float(gamma),
    )


def generate(
    params: SiviParams,
    batch: LabeledSubgraphBatch,
    spec: NoiseSpec,
    gamma,
    rng,
) -> GeneratedSample:
    """One mixing draw end to end: encode, reparameterize, decode, threshold."""
    moments = encode_semi_implicit(params, batch, replace(spec, num_psi=1), rng)
    [h] = reparameterize(moments, rng)
    return threshold_edges(decode_node_aware(h, batch), gamma)


# ---------------------------------------------------------------------------
# Pre-training


@dataclass
class GgmTrainConfig:
    epochs: int = 2000
    patience: int = 100
    lr: float = 1e-3
    batch_size: int = 64
    seed: int = 0
    hop_k: int = 1
    max_nodes: int = 1000

    def __post_init__(self):
        require_schedule(self.epochs, self.patience, self.batch_size, min_epochs=1)
        require_finite("lr", self.lr, minimum=0)
        require_extraction(self.hop_k, self.max_nodes)


@dataclass
class GgmPretrainResult:
    params: SiviParams
    trace: list
    best_epoch: int
    best_loss: float
    final_kl: float


def _pretrain_batch(params, subs, spec, state, rng):
    """One Adam step of the negated bound on a batch of subs; (loss, kl).

    Everything the step makes, its batch and tape included, dies when this
    returns, so no batch's arrays are alive while the next one runs.
    """
    batch = make_batch(subs)
    leaves = ad.Tape().leaves(params.named())
    result = sivi_elbo(params, batch, spec, rng, leaves=leaves)
    ad.adam_step(state, params.named(), ad.backward(result.loss, wrt=leaves).named(leaves))
    return result.loss.item(), result.kl.item()


def pretrain_ggm(
    g: Graph, split: DatasetSplit, cfg: GgmTrainConfig, spec: NoiseSpec
) -> GgmPretrainResult:
    """Fit the auto-encoder on labeled subgraphs of the train positives.

    g must be the training-visible graph. ad.train_epochs selects by mean
    loss, lower is better; final_kl is the selected epoch's draw-averaged
    KL, which co-training uses to center its divergence target.
    """
    links = [Edge(int(u), int(v), POSITIVE) for u, v in split.train_pos]
    subs = extract_for_links(
        g, links, k=cfg.hop_k, max_nodes=cfg.max_nodes, seed=cfg.seed
    )
    d_in = g.features.shape[1]
    params = init_sivi_params(
        d_in, noise_dim=spec.noise_dim, rng=stream_rng(cfg.seed, "init")
    )
    state = ad.AdamState(lr=cfg.lr)

    def run_epoch(epoch):
        numbers = [
            _pretrain_batch(params, [subs[i] for i in order], spec, state,
                            stream_rng(cfg.seed, f"ggm.noise.e{epoch}.b{start}"))
            for start, order in ad.shuffled_batches(cfg.seed, f"ggm.shuffle.e{epoch}",
                                                    len(subs), cfg.batch_size)]
        losses, kls = zip(*numbers)
        return {"loss": float(np.mean(losses)), "kl": float(np.mean(kls))}

    best, row, trace = ad.train_epochs(cfg.epochs, cfg.patience, run_epoch, params.copy,
                                       "loss", higher=False)
    return GgmPretrainResult(params=best, trace=trace, best_epoch=row["epoch"],
                             best_loss=row["loss"], final_kl=row["kl"])


# ---------------------------------------------------------------------------
# Sample dumps


def dump_samples(samples, path):
    """JSON dump of a list of GeneratedSamples, one record per block: block
    size, link label, target [0, 1], gamma and the thresholded edges with
    their probabilities. Each block is dumped on its own and the records joined
    as json.dumps would join them, so only one block's edge list is ever
    held as Python objects."""
    blocks = []
    for s in samples:
        for b in range(s.num_blocks):
            iu, ju = np.nonzero(np.triu(s.edge_probs[b], 1) > 0)
            probs = s.edge_probs[b][iu, ju].tolist()
            blocks.append(json.dumps({
                "block_size": int(s.block_sizes[b]),
                "label": int(s.link_labels[b]),
                "target": [0, 1],
                "gamma": s.gamma,
                "edges": list(zip(iu.tolist(), ju.tolist(), probs)),
            }))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"samples": [' + ", ".join(blocks) + "]}")


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _edge_ends(edges, m):
    """The (2, k) int64 ends of a block's k [i, j, p] edges: each end an
    integer in [0, m), the two distinct, p a number in [0, 1]. A ValueError
    names the first edge that breaks a rule."""
    ends = []
    for i, j, p in edges:
        if not all(_is_int(t) and 0 <= t < m for t in (i, j)) or i == j:
            raise ValueError(f"edge ({i}, {j}) is not two distinct integers in [0, {m})")
        if type(p) not in (int, float) or not 0 <= p <= 1:
            raise ValueError(f"edge ({i}, {j}) has probability {p!r}, not a number in [0, 1]")
        ends.append((i, j))
    return np.array(ends, dtype=np.int64).reshape(-1, 2).T


def load_samples(path, num_nodes):
    """Rebuild per-block records from a sample dump of a graph with
    num_nodes nodes. Each block_size must be an integer in [1, num_nodes],
    the target and each edge's two distinct ends integers in [0, block_size),
    and each edge's probability a JSON number in [0, 1]; anything else is a
    ValidationError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:
        raise ValidationError(f"{path}: not valid samples JSON: {exc}")
    out = []
    try:
        for rec in doc["samples"]:
            m, target = rec["block_size"], rec["target"]
            if not _is_int(m) or not 1 <= m <= num_nodes:
                raise ValueError(f"block_size {m!r} is not an integer in [1, {num_nodes}]")
            if not (isinstance(target, list) and len(target) == 2
                    and all(_is_int(t) and 0 <= t < m for t in target)):
                raise ValueError(f"target {target!r} is not two integers in [0, {m})")
            adj = np.zeros((m, m))
            i, j = _edge_ends(rec["edges"], m)
            adj[i, j] = adj[j, i] = 1.0
            out.append(
                {
                    "block_size": m,
                    "adjacency": adj,
                    "target": tuple(target),
                    "label": rec["label"],
                    "gamma": rec.get("gamma", 0.0),
                }
            )
    except KeyError as exc:
        raise ValidationError(f"{path}: missing field {exc}")
    except (IndexError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: malformed samples: {exc}")
    return out
