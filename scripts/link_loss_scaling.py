"""One full-batch pre-training step with link scoring fused and composed.

    python scripts/link_loss_scaling.py [--n 5000 20000] [--hidden 32]

For each n, builds the graph `counterlink synth --family er --n N --p P`
builds, with P = 4 / (n - 1) (average degree 4), and runs the predictor's
full-batch pre-training step on it: a two-layer GCN with dropout, every edge
as a positive and as many fresh negatives, the link loss and its backward.
The step runs twice: with `gnn.score_pairs`, one tape record per pair list
that re-reads the embeddings in its backward, and with the same scores
composed from public autodiff ops (a gather per endpoint, a product and a
row sum), which keep their pairs x width arrays until the backward. Prints
each one's best-of-3 time and tracemalloc peak, and exits 1 unless both give
byte-identical losses and parameter gradients.
"""

import argparse
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from counterlink import autodiff as ad  # noqa: E402
from counterlink import gnn  # noqa: E402
from counterlink.graphs import normalize_adjacency  # noqa: E402
from counterlink.rng import stream_rng  # noqa: E402
from counterlink.splits import sample_negatives  # noqa: E402
from counterlink.synth import SyntheticGraphSpec, synth_graph  # noqa: E402

DEGREE = 4
REPEATS = 3


def composed(h, pairs):
    """score_pairs as the public ops compose it: four tape records."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    hu = ad.gather_rows(h, pairs[:, 0])
    hv = ad.gather_rows(h, pairs[:, 1])
    return ad.tsum(ad.mul(hu, hv), axis=1)


def step(score, params, a_norm, x, pos, neg):
    """The loss and parameter gradients of one step, as bytes."""
    leaves = ad.Tape().leaves(params.named())
    h = gnn.gcn_forward(params, a_norm, x, rng=stream_rng(0, "dropout"), leaves=leaves)
    loss = gnn.lp_loss(score(h, pos), score(h, neg))
    grads = ad.backward(loss, wrt=leaves).named(leaves)
    return [loss.value.tobytes()] + [grads[k].tobytes() for k in sorted(grads)]


def measure(score, *args):
    """(the step's bytes, its fastest of REPEATS times, its tracemalloc peak)."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        out = step(score, *args)
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        step(score, *args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, min(times), peak


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, nargs="+", default=[5000, 20000])
    ap.add_argument("--hidden", type=int, default=32)
    args = ap.parse_args(argv)
    ok = True
    print(f"{'n':>7} {'pairs':>7} {'fused_s':>8} {'composed_s':>10} {'fused_mb':>9} "
          f"{'composed_mb':>11} {'peak_ratio':>10}")
    for n in args.n:
        g = synth_graph(SyntheticGraphSpec("er", n, p=DEGREE / (n - 1)))
        pos = g.edges()
        neg = sample_negatives(g, pos.shape[0], rng=stream_rng(0, "negatives"))
        params = gnn.init_gcn_params(g.features.shape[1], hidden=args.hidden, layers=2,
                                     dropout=0.1, rng=stream_rng(0, "init"))
        inputs = (params, normalize_adjacency(g.adjacency), g.features, pos, neg)
        fused, fused_s, fused_peak = measure(gnn.score_pairs, *inputs)
        plain, plain_s, plain_peak = measure(composed, *inputs)
        same = fused == plain
        ok &= same
        print(f"{n:>7} {2 * pos.shape[0]:>7} {fused_s:>8.3f} {plain_s:>10.3f} "
              f"{fused_peak / 2**20:>9.1f} {plain_peak / 2**20:>11.1f} "
              f"{plain_peak / fused_peak:>9.1f}x"
              + ("" if same else "  MISMATCH: the two steps' bytes differ"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
