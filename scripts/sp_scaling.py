"""Exact against depth-bounded shortest paths on sparse Erdős–Rényi graphs.

    python scripts/sp_scaling.py [--n 5000 20000]

For each n, builds the graph `counterlink synth --family er --n N --p P`
builds, with P = 4 / (n - 1) (average degree 4), and times
`graphs.shortest_path_length` over every edge twice: exact, and bounded at
4, as an SP split with upper threshold 4 reads it. Prints one row per graph
and exits 1 unless the bounded values equal min(exact, 4).
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from counterlink.graphs import shortest_path_length  # noqa: E402
from counterlink.synth import SyntheticGraphSpec, synth_graph  # noqa: E402

DEGREE = 4
BOUND = 4


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, nargs="+", default=[5000, 20000])
    args = ap.parse_args(argv)
    ok = True
    print(f"{'n':>7} {'edges':>7} {'exact_s':>8} {'bounded_s':>9} {'speedup':>8} "
          f"{'share>=bound':>12}")
    for n in args.n:
        g = synth_graph(SyntheticGraphSpec("er", n, p=DEGREE / (n - 1)))
        e = g.edges()
        exact, exact_s = timed(shortest_path_length, g, e[:, 0], e[:, 1])
        bounded, bounded_s = timed(shortest_path_length, g, e[:, 0], e[:, 1], BOUND)
        same = np.array_equal(bounded, np.minimum(exact, BOUND))
        ok &= same
        print(f"{n:>7} {g.edge_count:>7} {exact_s:>8.3f} {bounded_s:>9.3f} "
              f"{exact_s / bounded_s:>7.1f}x {np.mean(exact >= BOUND):>12.3f}"
              + ("" if same else "  MISMATCH: bounded != min(exact, bound)"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
