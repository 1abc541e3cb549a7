"""The per-value JSON readers that `splits._edge_array` and
`generator.load_samples` replaced, kept as their oracles.

`_edge_array` looks for booleans among a pair list's entries with one
C-level pass over their types; `edge_array_reference` is the Python
generator it replaced. `load_samples` collects each block's edge ends and
sets them in one step; `load_samples_reference` is the loop it replaced,
setting each edge as it is checked, with the probability rule both now
keep: a JSON number, not a bool or a string, in [0, 1]. Each pair must
accept the same documents with the same bytes and reject the rest with the
same message.
"""

import json

import numpy as np

from counterlink.errors import ValidationError


def edge_array_reference(rows, num_nodes, key):
    arr = np.array(rows)
    if arr.size == 0 and arr.ndim == 1:
        return np.empty((0, 2), dtype=np.int64)
    if (arr.ndim != 2 or arr.shape[1] != 2 or arr.dtype.kind not in "iu"
            or any(isinstance(x, bool) for pair in rows for x in pair)):
        raise ValueError(f"{key} must be a list of [u, v] integer pairs")
    if arr.min() < 0 or arr.max() >= num_nodes:
        raise ValueError(f"{key} holds a node id outside [0, {num_nodes})")
    return arr.astype(np.int64)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def load_samples_reference(path, num_nodes):
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
            for i, j, p in rec["edges"]:
                if not all(_is_int(t) and 0 <= t < m for t in (i, j)) or i == j:
                    raise ValueError(f"edge ({i}, {j}) is not two distinct integers in [0, {m})")
                if type(p) not in (int, float) or not 0 <= p <= 1:
                    raise ValueError(f"edge ({i}, {j}) has probability {p!r}, "
                                     "not a number in [0, 1]")
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
