"""Whole-array against line-by-line reading of the graph files.

    python scripts/ingest_scaling.py [--n 5000 20000]

For each n, writes the files `counterlink synth --family er --n N --p P`
writes, with P = 4 / (n - 1) (average degree 4) and degree-onehot:16
features, and times `graphs.load_graph` on them two ways: as it runs, one
numpy array pass per file, and with that pass switched off, so that the line
readers parse every line. Prints one row per graph (best of 3 each) and
exits 1 unless both ways return byte-equal edges and features.
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from counterlink import graphs  # noqa: E402
from counterlink.synth import SyntheticGraphSpec, synth_graph, write_graph_files  # noqa: E402

DEGREE = 4
REPEATS = 3


def read_both(edges, feats):
    """(the fastest of REPEATS load_graph times, the bytes of the edge array
    and feature matrix the two files parse to)."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        graphs.load_graph(edges, feats)
        times.append(time.perf_counter() - start)
    return min(times), (graphs.load_edge_list(edges).tobytes(),
                        graphs.load_features_csv(feats).tobytes())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, nargs="+", default=[5000, 20000])
    args = ap.parse_args(argv)
    ok = True
    print(f"{'n':>7} {'edges':>7} {'file_kb':>8} {'array_s':>8} {'lines_s':>8} {'speedup':>8}")
    for n in args.n:
        spec = SyntheticGraphSpec("er", n, p=DEGREE / (n - 1))
        with tempfile.TemporaryDirectory() as tmp:
            edges, feats = Path(tmp) / "edges.tsv", Path(tmp) / "features.csv"
            write_graph_files(synth_graph(spec), edges, feats)
            size = (edges.stat().st_size + feats.stat().st_size) / 1024
            array_s, fast = read_both(edges, feats)
            with mock.patch.object(graphs, "_whole_array", return_value=None):
                lines_s, slow = read_both(edges, feats)
        same = fast == slow
        ok &= same
        print(f"{n:>7} {len(fast[0]) // 16:>7} {size:>8.0f} {array_s:>8.3f} {lines_s:>8.3f} "
              f"{lines_s / array_s:>7.1f}x"
              + ("" if same else "  MISMATCH: the two reads differ"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
