"""Adversarial co-training of the link predictor and the generator.

Each mini-batch of labeled subgraphs flows twice: the generator produces
thresholded samples, the predictor scores every block's original link label
on its generated adjacency (propagating over thresholded edge probabilities
so gradients reach the generator), and the two parameter sets update
alternately. The predictor always descends the weighted classification
loss. The generator ascends its own objective, whose quadratic penalty
pins the posterior divergence near a target value; in check mode it also
descends the classification loss so prediction quality stays a check on
generation, while literal min-max mode ascends the full combined objective.

The predictor step reads only the generated adjacency: it encodes and decodes
the generator's first mixing draw untaped (the other draws' noise is drawn
and dropped, so the rng stream matches the evidence bound, which it never
computes) and descends predictor_loss on a tape holding the predictor alone.
Node features and link labels always come from the batch. The generator
step tapes both sides and the whole bound, but differentiates only the
generator's leaves: its backward never forms a predictor gradient. Each
batch runs in its own call, and each step's tape dies with the call that
made it, so neither the predictor step's arrays nor the last batch's are
alive while the next step runs.

predictor_loss runs the predictor on every block of a batch as one tape op,
so a step's tape holds the same few records whatever the batch size. Its
forward and backward run one stacked GCN per distinct block size in plain
numpy, and its backward forms only the gradients backward asks for. Only the
first-layer weight gradient is still formed block by block: the blocks'
gradients are summed in place in reverse batch order, and a stack of them
would hold blocks x feature width x hidden width at once.

Model selection is validation Hits@K with the pre-update state included as
a candidate, since over-tuning degrades quickly here.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .errors import (ConfigError, InputError, NumericError, require_extraction, require_finite,
                     require_schedule)
from .generator import (NoiseSpec, SiviParams, encode_semi_implicit, first_draw_logits,
                        generate, kl_gaussian, sivi_elbo)
from .gnn import (
    GcnParams,
    evaluate_hits,
    gcn_layers,
    normalize_adjacency,
    normalize_dense_adjacency,
)
from .graphs import Csr, Graph, NEGATIVE, POSITIVE, link_subgraphs, make_batch
from .rng import stream_rng
from .splits import DatasetSplit

UPDATE_RULES = ("check_mode", "literal_minmax")
ABLATION_SWITCHES = ("no_seal_labels", "no_lp_loss", "no_sivi")
# The per-batch numbers _tune_batch returns, averaged into each trace row.
TRACE_NUMBERS = ("lp_loss", "sivi_loss", "kl_estimate", "penalty", "mean_generated_cn")


@dataclass(frozen=True)
class CotrainConfig:
    alpha: float = 1.05
    tau: float = None
    tau_offset: float = 1.0
    gamma: float = 0.9
    lr_gnn: float = 1e-5
    lr_ggm: float = 1e-5
    epochs: int = 5
    batch_size: int = 64
    patience: int = 2
    update_rule: str = "check_mode"
    seed: int = 0
    eval_k: int = 20
    hop_k: int = 1
    max_nodes: int = 1000
    noise: NoiseSpec = field(default_factory=NoiseSpec)

    def __post_init__(self):
        require_finite("alpha", self.alpha, minimum=0)
        # Checked before tau, which the CLI may have derived from it.
        require_finite("tau_offset", self.tau_offset)
        if self.tau is not None:
            require_finite("tau", self.tau, minimum=0)
        require_finite("lr_gnn", self.lr_gnn, minimum=0)
        require_finite("lr_ggm", self.lr_ggm, minimum=0)
        if not 0.0 <= self.gamma <= 1.0:
            raise InputError("gamma must be in [0, 1]")
        if self.update_rule not in UPDATE_RULES:
            raise ConfigError(f"update_rule must be one of {UPDATE_RULES}")
        require_schedule(self.epochs, self.patience, self.batch_size)
        if self.eval_k < 1:
            raise InputError("eval_k must be >= 1")
        require_extraction(self.hop_k, self.max_nodes)


def gen_loss(elbo, kl_estimate, tau):
    """Generator objective: evidence bound minus (KL - tau) squared.

    The penalty vanishes at the target and is symmetric around it, so
    ascent drives the draw-averaged divergence toward tau.
    """
    return ad.sub(elbo, ad.square(ad.sub(kl_estimate, ad.Tensor(float(tau)))))


def flex_objective(lp, gen, alpha):
    """alpha * classification loss + generator objective, nothing hidden."""
    return ad.add(ad.mul(lp, ad.Tensor(float(alpha))), gen)


@dataclass
class LossBundle:
    lp: ad.Tensor
    sivi_loss: ad.Tensor
    kl: ad.Tensor
    gen: ad.Tensor
    penalty: float
    mean_generated_cn: float
    gnn_leaves: dict
    ggm_leaves: dict


def predictor_loss(gnn_params: GcnParams, batch, logits, gamma: float, leaves=None):
    """(classification loss, mean generated CN of the targets) of the predictor
    run per block over its thresholded edge probabilities; the batch's link
    labels are the BCE targets.

    logits are decode_logits' packed blocks, taped in the generator step and
    constant in the predictor step. The per-block work (sigmoid, gamma mask,
    normalization, the dense GCN and the target dot product) is one tape
    record whose output is every block's logit for its link, nodes 0 and 1. It
    runs one stacked GCN per distinct block size, each block as it would alone.
    """
    _, diagonal = batch.packed_layout()
    x = batch.stacked_features()
    named = leaves if leaves is not None else gnn_params.named()
    params = [ad.as_tensor(named[k]) for k in gnn_params.named()]
    weights = [t.value for t in params[0::2]]
    biases = [t.value for t in params[1::2]]
    lv = logits.value
    p = ad.stable_sigmoid(lv, np.exp(-np.abs(lv)))
    mask = (p >= gamma).astype(np.float64)
    mask[diagonal] = 0.0
    kept = p * mask
    target_logits = np.empty(len(batch.blocks))
    cns = np.empty(len(batch.blocks))
    stacks = []
    for grp in batch.size_groups():
        k, m = grp.blocks.size, grp.m
        prop, prop_vjp = normalize_dense_adjacency(kept[grp.cells].reshape(k, m, m))
        emb, gcn_vjp = gcn_layers(weights, biases, prop, x[grp.rows].reshape(k, m, -1))
        hu, hv = emb[:, 0], emb[:, 1]
        target_logits[grp.blocks] = (hu * hv).sum(axis=1)
        block_mask = mask[grp.cells].reshape(k, m, m)
        cns[grp.blocks] = (block_mask[:, 0] * block_mask[:, 1]).sum(axis=1)
        stacks.append((grp, hu, hv, emb.shape, prop_vjp, gcn_vjp))
    shapes = [t.shape for t in params]

    def back(g, need):
        need_logits, need_params = need[0], any(need[1:])
        g_logits = np.empty_like(lv) if need_logits else None
        if need_params:
            g_first = np.empty((x.shape[0], weights[0].shape[1]))
            per_block = [np.empty((len(batch.blocks), *s)) for s in shapes[1:]]
        for grp, hu, hv, shape, prop_vjp, gcn_vjp in stacks:
            g_emb = np.zeros(shape)
            g_b = g[grp.blocks, None]
            g_emb[:, 1] = g_b * hu
            g_emb[:, 0] += g_b * hv  # onto 0.0, as a gather's backward adds
            g_prop, g_z, g_stack = gcn_vjp(g_emb, need_logits, need_params)
            if need_params:
                g_first[grp.rows] = g_z.reshape(grp.rows.size, -1)
                for acc, grad in zip(per_block, g_stack[1:]):
                    acc[grp.blocks] = grad
            if need_logits:
                g_p = prop_vjp(g_prop).ravel() * mask[grp.cells]
                g_logits[grp.cells] = g_p * p[grp.cells] * (1.0 - p[grp.cells])
        if not need_params:
            return (g_logits, *(None for _ in shapes))
        # Blocks add their parameter gradients in reverse batch order, as a
        # block-by-block backward would: the first weight's in place, formed
        # per block from views of the features so no [blocks, d_in, hidden]
        # stack is ever built, and every other one as the last running sum
        # over its reversed per-block stack.
        g_w0 = None
        for b in reversed(range(len(batch.blocks))):
            rows = slice(batch.offsets[b], batch.offsets[b] + batch.block_sizes[b])
            g_block = x[rows].T @ g_first[rows]
            if g_w0 is None:
                g_w0 = g_block
            else:
                g_w0 += g_block
        g_params = [g_w0] + [np.add.accumulate(acc[::-1])[-1] for acc in per_block]
        return (g_logits, *(gk if n else None for n, gk in zip(need[1:], g_params)))

    joined = ad.emit("predictor_loss", target_logits, [logits, *params], back)
    labels = batch.batch_labels
    # Positives first, then negatives, as gnn.lp_loss orders its samples.
    order = np.concatenate([np.flatnonzero(labels == POSITIVE),
                            np.flatnonzero(labels == NEGATIVE)])
    lp = ad.bce_with_logits(ad.gather_rows(joined, order), labels[order])
    if not np.isfinite(lp.value):
        raise NumericError("classification loss is not finite")
    return lp, float(np.mean(cns))


def cotrain_losses(
    gnn_params: GcnParams,
    ggm_params: SiviParams,
    batch,
    cfg: CotrainConfig,
    tau: float,
    rng,
) -> LossBundle:
    """One joint forward pass on a batch; both loss sides share the tape, and
    the predictor scores the evidence bound's first draw."""
    tape = ad.Tape()
    ggm_leaves = tape.leaves(ggm_params.named())
    gnn_leaves = tape.leaves(gnn_params.named())

    elbo = sivi_elbo(ggm_params, batch, cfg.noise, rng, leaves=ggm_leaves)
    kl = elbo.kl
    gen = gen_loss(ad.neg(elbo.loss), kl, tau)
    penalty = float((kl.value - tau) ** 2)
    lp, mean_cn = predictor_loss(gnn_params, batch, elbo.logits, cfg.gamma, gnn_leaves)
    return LossBundle(
        lp=lp,
        sivi_loss=elbo.loss,
        kl=kl,
        gen=gen,
        penalty=penalty,
        mean_generated_cn=mean_cn,
        gnn_leaves=gnn_leaves,
        ggm_leaves=ggm_leaves,
    )


def gnn_step(lp: ad.Tensor, leaves: dict, state: ad.AdamState, params: GcnParams, alpha: float):
    """Descend alpha * classification loss on the predictor leaves only."""
    loss = ad.mul(lp, ad.Tensor(float(alpha)))
    grads = ad.backward(loss, wrt=leaves).named(leaves)
    ad.adam_step(state, params.named(), grads)


def ggm_step(bundle: LossBundle, state: ad.AdamState, params: SiviParams, cfg: CotrainConfig):
    """Ascend the generator objective per the configured update rule."""
    if cfg.update_rule == "check_mode":
        # ascend gen, descend alpha*lp
        descend = ad.sub(ad.mul(bundle.lp, ad.Tensor(cfg.alpha)), bundle.gen)
    else:
        # literal min-max: ascend alpha*lp + gen
        descend = ad.neg(flex_objective(bundle.lp, bundle.gen, cfg.alpha))
    grads = ad.backward(descend, wrt=bundle.ggm_leaves).named(bundle.ggm_leaves)
    ad.adam_step(state, params.named(), grads)


def _predictor_update(gnn_params, ggm_params, batch, cfg, state, rng):
    """The predictor step: descend the classification loss on a tape that
    holds the predictor alone, scoring the generator's first draw untaped."""
    leaves = ad.Tape().leaves(gnn_params.named())
    logits = first_draw_logits(ggm_params, batch, cfg.noise, rng)
    lp, _ = predictor_loss(gnn_params, batch, logits, cfg.gamma, leaves)
    gnn_step(lp, leaves, state, gnn_params, cfg.alpha)


def _tune_batch(gnn_params, ggm_params, subs, cfg, tau, state_gnn, state_ggm, stream):
    """One co-tuning batch of subs: the predictor step, then the generator
    step on the updated predictor; the generator step's trace numbers.

    Each step's tape dies with the call that made it, so the predictor's is
    gone before the generator's forward pass and this batch's before the
    next batch is built.
    """
    batch = make_batch(subs)
    _predictor_update(gnn_params, ggm_params, batch, cfg, state_gnn,
                      stream_rng(cfg.seed, f"{stream}.gnn"))
    bundle = cotrain_losses(gnn_params, ggm_params, batch, cfg, tau,
                            stream_rng(cfg.seed, f"{stream}.ggm"))
    ggm_step(bundle, state_ggm, ggm_params, cfg)
    return (bundle.lp.item(), bundle.sivi_loss.item(), bundle.kl.item(), bundle.penalty,
            bundle.mean_generated_cn)


def resolve_tau(ggm_params, probe_batch, cfg: CotrainConfig) -> float:
    """Explicit tau, or the pre-trained posterior's KL plus the offset."""
    if cfg.tau is not None:
        return float(cfg.tau)
    moments = encode_semi_implicit(
        ggm_params, probe_batch, cfg.noise, stream_rng(cfg.seed, "cot.tau"))
    kls = [kl_gaussian(mu, lv).item() for mu, lv in moments]
    return float(np.mean(kls)) + cfg.tau_offset


@dataclass
class CotrainResult:
    gnn: GcnParams
    ggm: SiviParams
    trace: list
    best_epoch: int
    best_valid: float
    tau: float
    test_hits: float
    base_test_hits: float  # the pre-trained predictor's, on the same adjacency

    def selection(self) -> dict:
        """The run's model-selection outcome paired with its baseline."""
        return {"best_epoch": self.best_epoch,
                "selected_pretrained": self.best_epoch == 0,
                "test_hits": self.test_hits,
                "base_test_hits": self.base_test_hits,
                "test_delta": self.test_hits - self.base_test_hits}


def train_subgraphs(g: Graph, split: DatasetSplit, cfg: CotrainConfig) -> list:
    """link_subgraphs of the split's train positives, then its negatives."""
    return link_subgraphs(g, cfg, split.train_pos, split.train_neg)


def flex_tune(
    gnn_params: GcnParams,
    ggm_params: SiviParams,
    g: Graph,
    split: DatasetSplit,
    cfg: CotrainConfig,
    eval_norm: Csr = None,
    subgraphs: list = None,
) -> CotrainResult:
    """Alternate predictor and generator updates over generated samples.

    g is the training-visible graph; Hits@K is scored on eval_norm, a
    normalized adjacency that defaults to g's own. subgraphs defaults to
    train_subgraphs(g, split, cfg). Returns the pair ad.train_epochs selects
    by validation Hits@K, with the untouched pre-trained pair as epoch 0, and
    the test Hits@K of it and of the pre-trained predictor. Each trace row
    records its epoch's wall-clock seconds; row 0 covers any extraction, tau
    and the pre-update validation.
    """
    t0 = time.perf_counter()
    pretrained = gnn_params
    gnn_params = gnn_params.copy()
    ggm_params = ggm_params.copy()
    subs = subgraphs if subgraphs is not None else train_subgraphs(g, split, cfg)
    if eval_norm is None:
        eval_norm = normalize_adjacency(g.adjacency)
    tau = resolve_tau(ggm_params, make_batch(subs[: cfg.batch_size or len(subs)]), cfg)

    state_gnn = ad.AdamState(lr=cfg.lr_gnn)
    state_ggm = ad.AdamState(lr=cfg.lr_ggm)

    def valid_hits():
        return evaluate_hits(
            gnn_params, eval_norm, g.features, split.valid_pos, split.valid_neg, cfg.eval_k
        )

    def snapshot():
        return gnn_params.copy(), ggm_params.copy()

    def run_epoch(epoch):
        numbers = [
            _tune_batch(gnn_params, ggm_params, [subs[i] for i in order], cfg, tau,
                        state_gnn, state_ggm, f"cot.noise.e{epoch}.b{start}")
            for start, order in ad.shuffled_batches(cfg.seed, f"cot.shuffle.e{epoch}",
                                                    len(subs), cfg.batch_size)]
        return {**{k: float(np.mean(col)) for k, col in zip(TRACE_NUMBERS, zip(*numbers))},
                "valid_hits": valid_hits()}

    epoch0 = {"epoch": 0, **dict.fromkeys(TRACE_NUMBERS, float("nan")),
              "valid_hits": valid_hits(), "seconds": time.perf_counter() - t0}
    best, row, trace = ad.train_epochs(cfg.epochs, cfg.patience, run_epoch, snapshot,
                                       "valid_hits", start=(epoch0, snapshot()))
    test_hits, base_test_hits = (
        evaluate_hits(params, eval_norm, g.features, split.test_pos, split.test_neg, cfg.eval_k)
        for params in (best[0], pretrained)
    )
    return CotrainResult(
        gnn=best[0], ggm=best[1], trace=trace, best_epoch=row["epoch"],
        best_valid=row["valid_hits"], tau=tau, test_hits=test_hits,
        base_test_hits=base_test_hits,
    )


def generate_samples(
    ggm_params: SiviParams,
    g: Graph,
    split: DatasetSplit,
    cfg: CotrainConfig,
    bucket: str = "train",
    subgraphs: list = None,
):
    """Generated samples conditioned on one bucket's positive links.

    subgraphs, when given, are those links' labeled subgraphs as
    link_subgraphs takes them: for the train bucket, the positive prefix of
    train_subgraphs(g, split, cfg).
    """
    subs = subgraphs if subgraphs is not None else link_subgraphs(g, cfg, split.pos(bucket))
    size = cfg.batch_size or len(subs)
    out = []
    for bi in range(0, len(subs), size):
        batch = make_batch(subs[bi : bi + size])
        out.append(
            generate(
                ggm_params, batch, cfg.noise, cfg.gamma,
                stream_rng(cfg.seed, f"gen.{bucket}.b{bi}"),
            )
        )
    return out


def ablation_run(
    gnn_params: GcnParams,
    ggm_params: SiviParams,
    g: Graph,
    split: DatasetSplit,
    cfg: CotrainConfig,
    switch: str = None,
    eval_norm: Csr = None,
) -> CotrainResult:
    """flex_tune with one mechanism removed; None runs the full pipeline.

    no_seal_labels tunes on train subgraphs whose endpoint labels, the
    generator's label channel, are zeroed; no_lp_loss sets alpha to zero;
    no_sivi collapses to one mixing draw with zeroed noise. Everything else,
    including seeds and eval_norm, stays equal.
    """
    run_cfg, subgraphs = cfg, None
    if switch == "no_seal_labels":
        subgraphs = [replace(sub, labels=np.zeros_like(sub.labels))
                     for sub in train_subgraphs(g, split, cfg)]
    elif switch == "no_lp_loss":
        run_cfg = replace(cfg, alpha=0.0)
    elif switch == "no_sivi":
        run_cfg = replace(cfg, noise=replace(cfg.noise, num_psi=1, zero_noise=True))
    elif switch is not None:
        raise ConfigError(
            f"unknown ablation switch {switch!r}; expected one of {ABLATION_SWITCHES}"
        )
    return flex_tune(gnn_params, ggm_params, g, split, run_cfg,
                     eval_norm=eval_norm, subgraphs=subgraphs)
