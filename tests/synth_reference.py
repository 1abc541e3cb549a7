"""Whole-triangle Bernoulli edge draws, kept as oracles.

`synth.sbm_edges` and `synth.er_edges` draw the upper triangle in runs of
whole rows, so memory grows with n plus one run. These are the versions
they replaced: one `np.triu_indices` over all n(n-1)/2 pairs and one
`rng.random` call for all of them. The edge arrays must match byte for byte.
"""

import numpy as np


def sbm_edges_reference(block_sizes, p_in, p_out, rng):
    block_sizes = list(block_sizes)
    bounds = np.cumsum([0] + block_sizes)
    n = int(bounds[-1])
    block_of = np.searchsorted(bounds, np.arange(n), side="right") - 1
    p_in = list(p_in) if isinstance(p_in, (list, tuple, np.ndarray)) else [p_in] * len(block_sizes)
    iu, ju = np.triu_indices(n, k=1)
    same = block_of[iu] == block_of[ju]
    probs = np.where(same, np.asarray(p_in)[block_of[iu]], p_out)
    mask = rng.random(iu.size) < probs
    return np.stack([iu[mask], ju[mask]], axis=1)


def er_edges_reference(n, p, rng):
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < p
    return np.stack([iu[mask], ju[mask]], axis=1)
