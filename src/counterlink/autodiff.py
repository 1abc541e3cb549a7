"""Dense float64 tensors with reverse-mode differentiation and Adam, and the
early-stopped epoch loop the three trainers share.

A Tape owns one forward pass: parameters are wrapped with tape.leaf(...),
ops record themselves when any input is being traced, and backward(loss)
returns a gradient map for that tape only. Gradients of tensors that were
never put on the tape are never written, by construction.

backward(loss, wrt=leaves) goes further for a training step that updates
some of a tape's leaves: it walks only the records that lead back to them,
drops each intermediate gradient as soon as its record has used it, and
keeps only the gradients of wrt. Asking it for any other tensor's gradient
is an error, not zeros. Without wrt every gradient is kept.

emit(op, value, inputs, backward_fn) is how an op records itself, and a
fused op outside this module does the same. backward calls every
backward_fn(g_out, need): need[i] is False for an input whose gradient no
one uses, a constant (a fixed feature matrix or propagation matrix) or,
under wrt, a tensor that leads to none of wrt. matmul, mul and the fused ops
skip such an input's products; other ops may ignore need, as backward drops
any gradient nobody asked for. The GCN records once per call and the
generator's encoder layer once per draw, both through gnn.gcn_layers; the
generator's block decoder and reconstruction loss and co-tuning's
generated-graph predictor record once per batch and, inside their forward
and backward, run one stacked numpy product per distinct block size, so the
tape does not grow with the number of blocks or layers.

A backward_fn holds arrays and flags, never a Tensor. A Tensor refers to its
tape, so a closure holding one puts the tape in a reference cycle that keeps
every array of its step alive until the cyclic garbage collector runs;
without one a step's tape is freed as soon as the step drops it, which a test
checks with the collector off.

The ops here are dense; graph propagation happens inside those fused ops.
"""

import math
import operator
import os
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericError, ShapeError
from .rng import stream_rng


class Tensor:
    """Value plus optional tape handle; .value is the raw ndarray."""

    __slots__ = ("value", "tape", "node_id")

    def __init__(self, value, tape=None, node_id=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.tape = tape
        self.node_id = node_id

    @property
    def shape(self):
        return self.value.shape

    def item(self):
        return float(self.value)


class Tape:
    """Ordered op record for one forward pass; single-owner, not shared."""

    def __init__(self):
        self._records = []
        self._next_id = 0

    def _fresh(self):
        nid = self._next_id
        self._next_id += 1
        return nid

    def leaf(self, value) -> Tensor:
        return Tensor(value, tape=self, node_id=self._fresh())

    def leaves(self, named: dict) -> dict:
        return {k: self.leaf(v) for k, v in named.items()}

    def record(self, out_value, inputs, backward_fn) -> Tensor:
        out = Tensor(out_value, tape=self, node_id=self._fresh())
        self._records.append((out.node_id, [t.node_id for t in inputs], backward_fn))
        return out


class Grads:
    """Gradient map keyed by tape node id; zeros for untouched leaves.

    wanted is the node ids backward was asked for, or None for all of them.
    """

    def __init__(self, tape, table, wanted=None):
        self._tape = tape
        self._table = table
        self._wanted = wanted

    def of(self, tensor: Tensor) -> np.ndarray:
        if tensor.tape is not self._tape or tensor.node_id is None:
            raise InputError("tensor does not belong to this tape")
        if self._wanted is not None and tensor.node_id not in self._wanted:
            raise InputError("tensor is not among the ones backward was asked for")
        g = self._table.get(tensor.node_id)
        if g is None:
            return np.zeros_like(tensor.value)
        return g

    def named(self, leaves: dict) -> dict:
        return {k: self.of(t) for k, t in leaves.items()}


def backward(loss: Tensor, wrt=None) -> Grads:
    """Reverse pass from a scalar loss over its tape.

    wrt, a dict of tensors on the loss's tape such as tape.leaves returns,
    limits the pass to what their gradients need; their gradients are the
    same bytes as without it.
    """
    if loss.tape is None:
        raise InputError("loss is not attached to a tape")
    if loss.value.size != 1:
        raise InputError(f"loss must be scalar, got shape {loss.shape}")
    tape = loss.tape
    wanted = reach = None
    if wrt is not None:
        wanted = set()
        for t in wrt.values():
            if t.tape is not tape or t.node_id is None:
                raise InputError("wrt tensor does not belong to the loss's tape")
            wanted.add(t.node_id)
        # Node ids that depend on a wanted tensor: only their gradients flow
        # back to one.
        reach = set(wanted)
        for out_id, in_ids, _ in tape._records:
            if not reach.isdisjoint(in_ids):
                reach.add(out_id)
    table = {loss.node_id: np.ones_like(loss.value)}
    for out_id, in_ids, backward_fn in reversed(tape._records):
        if reach is None:
            need = [nid is not None for nid in in_ids]
            g_out = table.get(out_id)
        else:
            need = [nid in reach for nid in in_ids]
            if not any(need):
                continue
            g_out = table.get(out_id) if out_id in wanted else table.pop(out_id, None)
        if g_out is None:
            continue
        for nid, g, used in zip(in_ids, backward_fn(g_out, need), need):
            if g is None or not used:
                continue
            acc = table.get(nid)
            table[nid] = g if acc is None else acc + g
    return Grads(tape, table, wanted)


# ---------------------------------------------------------------------------
# Op plumbing


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _tape_of(op, *tensors):
    tape = None
    for t in tensors:
        if t.tape is not None:
            if tape is not None and tape is not t.tape:
                raise InputError(f"{op}: inputs live on different tapes")
            tape = t.tape
    return tape


def emit(op, out_value, inputs, backward_fn) -> Tensor:
    """Record one op on its inputs' tape, or return a constant if none is traced.

    backward_fn(g_out, need) returns one gradient per input, in order; need[i]
    tells whether input i's gradient will be used, and where it is False the
    gradient may be None. backward_fn must hold arrays and flags, not Tensors:
    a Tensor refers to its tape, so the tape would sit in a reference cycle
    and keep every array of its step alive until the cyclic garbage collector
    happens to run.
    """
    tape = _tape_of(op, *inputs)
    if tape is None:
        return Tensor(out_value)
    return tape.record(out_value, inputs, backward_fn)


def unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to the original shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# Core ops


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.value + b.value
    except ValueError:
        raise ShapeError("add", f"{a.shape} vs {b.shape}")
    sa, sb = a.shape, b.shape
    return emit("add", out, [a, b], lambda g, _: (unbroadcast(g, sa), unbroadcast(g, sb)))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.value - b.value
    except ValueError:
        raise ShapeError("sub", f"{a.shape} vs {b.shape}")
    sa, sb = a.shape, b.shape
    return emit("sub", out, [a, b], lambda g, _: (unbroadcast(g, sa), unbroadcast(-g, sb)))


def neg(a) -> Tensor:
    a = as_tensor(a)
    return emit("neg", -a.value, [a], lambda g, _: (-g,))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.value * b.value
    except ValueError:
        raise ShapeError("mul", f"{a.shape} vs {b.shape}")
    av, bv = a.value, b.value

    def back(g, need):
        return (unbroadcast(g * bv, av.shape) if need[0] else None,
                unbroadcast(g * av, bv.shape) if need[1] else None)

    return emit("mul", out, [a, b], back)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.value.ndim != 2 or b.value.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError("matmul", f"{a.shape} @ {b.shape}")
    av, bv = a.value, b.value

    def back(g, need):
        return (g @ bv.T if need[0] else None, av.T @ g if need[1] else None)

    return emit("matmul", av @ bv, [a, b], back)


def concat(tensors, axis=0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise InputError("concat: empty input list")
    try:
        out = np.concatenate([t.value for t in ts], axis=axis)
    except ValueError:
        raise ShapeError("concat", f"{[t.shape for t in ts]} along axis {axis}")
    sizes = [t.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]
    return emit("concat", out, ts, lambda g, _: tuple(np.split(g, splits, axis=axis)))


def gather_rows(a, idx) -> Tensor:
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError("gather_rows", f"index out of range for {a.shape[0]} rows")
    av = a.value
    width = math.prod(av.shape[1:])

    def back(g, _):
        return (scatter_rows(idx, g.reshape(idx.size, width).T, av.shape),)

    return emit("gather_rows", av[idx], [a], back)


def scatter_rows(index, columns, shape):
    """The C-ordered [shape] array whose row r adds, from 0.0 and in pick
    order, the picks i with index[i] == r, as np.add.at does. columns yields
    each column's pick values in turn (a row's cells in row-major order), one
    bincount each, so no picks x width array need exist."""
    out = np.empty((shape[0], math.prod(shape[1:])))
    for c, col in enumerate(columns):
        out[:, c] = np.bincount(index, weights=col, minlength=shape[0])
    return out.reshape(shape)


def tsum(a, axis=None) -> Tensor:
    a = as_tensor(a)
    av = a.value
    out = av.sum(axis=axis)

    def back(g, _):
        if axis is None:
            return (np.full(av.shape, g),)
        return (np.broadcast_to(np.expand_dims(g, axis), av.shape).copy(),)

    return emit("sum", out, [a], back)


def tmean(a, axis=None) -> Tensor:
    a = as_tensor(a)
    av = a.value
    count = av.size if axis is None else av.shape[axis]
    out = av.mean(axis=axis)

    def back(g, _):
        if axis is None:
            return (np.full(av.shape, g / count),)
        return (np.broadcast_to(np.expand_dims(g, axis), av.shape).copy() / count,)

    return emit("mean", out, [a], back)


def stable_sigmoid(x, e):
    """Sigmoid of x given e = exp(-|x|): 1/(1+e) where x >= 0, else e/(1+e)."""
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.value)
    return emit("exp", out, [a], lambda g, _: (g * out,))


def square(a) -> Tensor:
    a = as_tensor(a)
    av = a.value
    return emit("square", av * av, [a], lambda g, _: (g * 2.0 * av,))


def clip(a, lo, hi) -> Tensor:
    """Value clamp; gradient is zero outside [lo, hi]."""
    a = as_tensor(a)
    av = a.value
    mask = (av >= lo) & (av <= hi)
    return emit("clip", np.clip(av, lo, hi), [a], lambda g, _: (g * mask,))


def bce_with_logits(logits, targets) -> Tensor:
    """Mean numerically stable binary cross-entropy on logits; targets are
    constants with the logits' shape."""
    logits = as_tensor(logits)
    lv = logits.value
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != lv.shape:
        raise ShapeError("bce_with_logits", f"logits {lv.shape} vs targets {t.shape}")
    e = np.exp(-np.abs(lv))
    out = (np.maximum(lv, 0.0) - lv * t + np.log1p(e)).mean()
    base = stable_sigmoid(lv, e) - t
    return emit("bce_with_logits", out, [logits], lambda g, _: (g * base / lv.size,))


# ---------------------------------------------------------------------------
# Adam and the epoch loop


# Adam's moment decay rates and the guard added to its denominator.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    lr: float = 1e-3
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(state: AdamState, params: dict, grads: dict) -> dict:
    """One bias-corrected Adam update, in place on the parameter arrays."""
    for name, g in grads.items():
        if np.isnan(g).any() or np.isinf(g).any():
            raise NumericError(f"non-finite gradient for parameter {name!r}")
    state.step += 1
    correct1 = 1.0 - ADAM_BETA1 ** state.step
    correct2 = 1.0 - ADAM_BETA2 ** state.step
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeError("adam_step", f"{name}: grad {g.shape} vs param {p.shape}")
        m = state.m.setdefault(name, np.zeros_like(p))
        v = state.v.setdefault(name, np.zeros_like(p))
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= state.lr * (m / correct1) / (np.sqrt(v / correct2) + ADAM_EPS)
    return params


def shuffled_batches(seed, stream, count, batch_size):
    """(start, indices) of each batch of one epoch's permutation of count
    items, drawn from the named stream; batch_size 0 gives one batch."""
    order = stream_rng(seed, stream).permutation(count)
    if not batch_size:
        return [(0, order)]
    return [(start, order[start : start + batch_size]) for start in range(0, count, batch_size)]


def train_epochs(epochs, patience, run_epoch, snapshot, score, higher=True, start=None):
    """(best state, best row, trace) of early-stopped epochs 1..epochs. Each
    row is {"epoch": e, **run_epoch(e), "seconds": wall clock}; it is kept, and
    snapshot() taken, only if its score key beats the kept row's strictly
    (higher or lower); patience epochs without one end the run. start=(row,
    state) is an epoch-0 candidate heading the trace; else epoch 1 is kept."""
    best_row, best = start if start is not None else (None, None)
    trace = [best_row] if start is not None else []
    beats = operator.gt if higher else operator.lt
    for epoch in range(1, epochs + 1):
        t0 = time.perf_counter()
        row = {"epoch": epoch, **run_epoch(epoch)}
        row["seconds"] = time.perf_counter() - t0
        trace.append(row)
        if best_row is None or beats(row[score], best_row[score]):
            best_row, best = row, snapshot()
        if epoch - best_row["epoch"] >= patience:
            break
    return best, best_row, trace


# ---------------------------------------------------------------------------
# Checkpoints: magic, version, named float64 tables, a zero flag byte.

_MAGIC = b"CLNKCKPT"
_VERSION = 1


def _write_array(fh, name, arr):
    enc = name.encode("utf-8")
    fh.write(struct.pack("<H", len(enc)))
    fh.write(enc)
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    fh.write(struct.pack("<B", arr.ndim))
    for d in arr.shape:
        fh.write(struct.pack("<q", d))
    fh.write(arr.astype("<f8").tobytes())


def _read(fh, size):
    """Exactly size bytes, or an InputError naming the file."""
    data = fh.read(size)
    if len(data) != size:
        raise InputError(f"{fh.name}: truncated or corrupt checkpoint")
    return data


def _unpack(fh, fmt):
    return struct.unpack(fmt, _read(fh, struct.calcsize(fmt)))


def _read_array(fh):
    (nlen,) = _unpack(fh, "<H")
    try:
        name = _read(fh, nlen).decode("utf-8")
    except UnicodeDecodeError:
        raise InputError(f"{fh.name}: corrupt checkpoint: array name is not UTF-8")
    (ndim,) = _unpack(fh, "<B")
    shape = tuple(_unpack(fh, "<q")[0] for _ in range(ndim))
    count = math.prod(shape)  # Python ints, so a huge shape cannot wrap to 0
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if min(shape, default=0) < 0 or count * 8 > left:
        raise InputError(f"{fh.name}: truncated or corrupt checkpoint: array {name!r} "
                         f"claims shape {shape} with {left} bytes left")
    data = np.frombuffer(_read(fh, count * 8), dtype="<f8").reshape(shape).copy()
    return name, data


def save_checkpoint(path, named: dict):
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<I", len(named)))
        for name in sorted(named):
            _write_array(fh, name, named[name])
        # Optimizer-state flag: always 0, kept so the format stays unchanged.
        fh.write(struct.pack("<B", 0))


def load_checkpoint(path):
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise InputError(f"{path}: not a checkpoint file")
        (version,) = _unpack(fh, "<I")
        if version != _VERSION:
            raise InputError(f"{path}: unsupported checkpoint version {version}")
        (count,) = _unpack(fh, "<I")
        named = {}
        for _ in range(count):
            name, arr = _read_array(fh)
            named[name] = arr
        (flag,) = _unpack(fh, "<B")
        if flag != 0:
            raise InputError(f"{path}: corrupt checkpoint: optimizer-state flag is "
                             f"{flag}, only parameters are stored")
        if fh.read(1):
            raise InputError(f"{path}: corrupt checkpoint: bytes follow its closing flag")
    return named


def save_params(path, params, extra_meta: dict = None):
    """A model's named arrays and its meta, plus extra_meta as `meta.<key>`
    entries, through save_checkpoint."""
    named = {**params.named(), **params.meta()}
    for key, val in (extra_meta or {}).items():
        named[f"meta.{key}"] = np.atleast_1d(np.asarray(val, dtype=np.float64))
    save_checkpoint(path, named)


# The run summaries save_params's callers store beside a model's meta.
RUN_SUMMARIES = {f"meta.{k}" for k in ("best_valid", "test_hits", "final_kl", "best_loss", "tau")}


def load_params(path, cls):
    """(cls.from_named of the checkpoint, its `meta.<key>` values as floats); a
    missing entry, an entry neither the model's nor a run summary, or a meta
    entry that is not one finite number is an InputError."""
    named = load_checkpoint(path)
    meta = {k: v.reshape(-1) for k, v in named.items() if k.startswith("meta.")}
    for key, value in meta.items():
        if value.size != 1 or not math.isfinite(value[0]):
            raise InputError(f"{path}: checkpoint entry {key!r} is not one finite number")
    try:
        params = cls.from_named({**named, **meta})
    except KeyError as exc:
        raise InputError(f"{path}: checkpoint is missing entry {exc}") from None
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
    unknown = sorted(set(named) - {*params.named(), *params.meta(), *RUN_SUMMARIES})
    if unknown:
        raise InputError(f"{path}: checkpoint holds an unknown entry {unknown[0]!r}")
    return params, {k[5:]: float(v[0]) for k, v in meta.items()}


def require_shapes(named, axes, meta):
    """InputError naming the first checkpoint entry whose shape does not fit.

    axes maps each array entry to the names of its axes in order: the first
    entry with a name fixes that axis's length, and a None axis is free. meta
    maps meta entries to the axis whose length each must hold.
    """
    length = {}
    for key, names in axes.items():
        shape = named[key].shape
        if len(shape) != len(names):
            raise InputError(f"checkpoint entry {key!r} has shape {shape}, not {len(names)} axes")
        for name, n in zip(names, shape):
            if name is not None and length.setdefault(name, n) != n:
                raise InputError(f"checkpoint entry {key!r} has shape {shape}: its {name} "
                                 f"axis is {n}, not {length[name]}")
    for key, name in meta.items():
        if named[key][0] != length[name]:
            raise InputError(f"checkpoint entry {key!r} is {named[key][0]:g}, but the "
                             f"arrays' {name} axis is {length[name]}")
