"""The one-pair rejection loop of `splits.sample_negatives`' sparse branch,
kept as an oracle.

The production branch draws each round's candidates with one array call of
`rng.integers` and filters them with whole-array lookups. It must return
exactly what this loop returns for the same generator state.
"""

import numpy as np

from counterlink.graphs import Graph


def sparse_negatives_reference(g: Graph, count: int, rng: np.random.Generator):
    n = g.num_nodes
    chosen = set()
    out = []
    while len(out) < count:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in chosen or g.has_edge(*key):
            continue
        chosen.add(key)
        out.append(key)
    return np.array(out, dtype=np.int64)
