"""Property tests of the undirected-pair rules every reader shares.

A pair's key is min * n + max, a repeat is a later occurrence of a key, and
an edge lookup is a search among the graph's sorted edge keys; graphs.py
writes each rule once. Here drawn pair lists, with repeats, reversed copies,
self-pairs, booleans and ids of 2**63 or more, go through every reader of
pairs: `load_edge_list`, `Graph.from_edge_array` and `verify_split`'s
negative checks must agree with plain-Python set loops, and the same
corruptions of `edges.tsv` and `split.json` must exit the CLI with 2 and 5,
without a traceback.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from counterlink.cli import main
from counterlink.errors import InputError, ValidationError
from counterlink.graphs import Graph, load_edge_list
from counterlink.splits import DatasetSplit, SplitSpec, generate_split, verify_split
from counterlink.synth import SyntheticGraphSpec, synth_graph
from splits_reference import verify_split_reference

BIG = 2**63  # the first id that does not fit in int64
NODES = 6
BUCKET_KEYS = [f"{b}_{kind}" for b in ("train", "valid", "test") for kind in ("pos", "neg")]

small_ids = st.integers(0, NODES - 1)
odd_ids = st.booleans() | st.integers(BIG, 2**64 + 1)


@st.composite
def pair_lists(draw, ids=small_ids, odd=False, known=(), max_size=8):
    """A list of pairs, each a fresh pair of ids, a self-pair, a repeat or a
    reversed copy of an earlier pair (or of a known one), or, when odd, a
    pair with one boolean or too-large id."""
    kinds = ["fresh", "self", "repeat", "reversed"] + ["odd"] * odd
    pairs = []
    for _ in range(draw(st.integers(0, max_size))):
        kind = draw(st.sampled_from(kinds))
        pool = pairs + list(known)
        if kind in ("repeat", "reversed") and pool:
            u, v = draw(st.sampled_from(pool))
            pairs.append([u, v] if kind == "repeat" else [v, u])
        elif kind == "self":
            x = draw(ids)
            pairs.append([x, x])
        elif kind == "odd":
            pair = [draw(ids), draw(odd_ids)]
            pairs.append(pair if draw(st.booleans()) else pair[::-1])
        else:
            pairs.append([draw(ids), draw(ids)])
    return pairs


def is_odd(x):
    return isinstance(x, bool) or x >= BIG


def edge_list_oracle(path, pairs):
    """load_edge_list as plain-Python loops over the lines "u<TAB>v": the
    prefix of the error at the first line with an id that is not an int64
    integer, else the whole message naming every self-loop and duplicate,
    else the (min, max) rows."""
    for lineno, pair in enumerate(pairs, start=1):
        if any(map(is_odd, pair)):
            return "prefix", f"{path}:{lineno}: "
    seen, bad, rows = {}, [], []
    for lineno, (u, v) in enumerate(pairs, start=1):
        key = frozenset((u, v))
        if u == v:
            bad.append(f"line {lineno}: self-loop")
        elif key in seen:
            bad.append(f"line {lineno}: duplicate of line {seen[key]}")
        else:
            seen[key] = lineno
            rows.append([min(u, v), max(u, v)])
    if bad:
        return "message", f"{path}: rejected {len(bad)} line(s): {'; '.join(bad[:20])}"
    return "rows", rows


def write_edge_list(path, pairs):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{u}\t{v}\n" for u, v in pairs)


class TestEdgeListAgreesWithSetOracle:
    @settings(max_examples=200, deadline=None)
    @given(pair_lists(odd=True))
    def test_first_bad_line_or_rows(self, pairs):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "edges.tsv")
            write_edge_list(path, pairs)
            kind, want = edge_list_oracle(path, pairs)
            if kind == "rows":
                assert load_edge_list(path).tolist() == want
            else:
                with pytest.raises(InputError) as err:
                    load_edge_list(path)
                got = str(err.value)
                assert got.startswith(want) if kind == "prefix" else got == want


class TestGraphAgreesWithSetOracle:
    @settings(max_examples=200, deadline=None)
    @given(pair_lists())
    def test_accepts_exactly_distinct_non_loop_pairs(self, pairs):
        edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        keys = [frozenset(p) for p in pairs]
        if any(u == v for u, v in pairs):
            with pytest.raises(InputError, match="self-loops are not allowed"):
                Graph.from_edge_array(NODES, edges, np.eye(NODES))
        elif len(set(keys)) < len(keys):
            with pytest.raises(InputError, match="duplicate edges are not allowed"):
                Graph.from_edge_array(NODES, edges, np.eye(NODES))
        else:
            g = Graph.from_edge_array(NODES, edges, np.eye(NODES))
            assert g.edges().tolist() == sorted([min(u, v), max(u, v)] for u, v in pairs)
            assert g.edge_keys.tolist() == sorted(g.edge_keys.tolist())
            for u in range(NODES):
                for v in range(NODES):
                    assert g.has_edge(u, v) == (frozenset((u, v)) in keys)


@pytest.fixture(scope="module")
def small_split():
    """A 30-node graph and a PA split of it with no empty bucket."""
    g = synth_graph(SyntheticGraphSpec(family="sbm", n=30, blocks=2, p_in=0.3,
                                       p_out=0.02, feature_mode="constant:1", seed=1))
    return g, generate_split(g, SplitSpec("PA", "forward", 20, 40, seed=0))


class TestVerifySplitNegativesAgreeWithSetOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_same_verdict_and_message(self, small_split, data):
        g, split = small_split
        ids = st.integers(0, g.num_nodes - 1)
        edges = [tuple(e) for e in g.edges().tolist()]
        negs = {}
        for bucket in ("train", "valid", "test"):
            known = [p for n in negs.values() for p in n] + edges
            negs[bucket] = data.draw(pair_lists(ids, known=known), label=f"{bucket}_neg")
        corrupted = DatasetSplit(
            train_pos=split.train_pos, valid_pos=split.valid_pos, test_pos=split.test_pos,
            **{f"{b}_neg": np.array(p, dtype=np.int64).reshape(-1, 2) for b, p in negs.items()},
            observed_graph=split.observed_graph, spec=split.spec,
        )
        try:
            want = verify_split_reference(g, corrupted)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as err:
                verify_split(g, corrupted)
            assert str(err.value) == str(exc)
        else:
            assert verify_split(g, corrupted) == want


@st.composite
def bad_pairs(draw, ids, copies):
    """A pair that makes a pair list wrong: a self-pair, a pair holding a
    boolean or an id of 2**63 or more, or a copy of one of copies, as
    written or reversed."""
    kind = draw(st.sampled_from(["self", "odd"] + ["copy"] * bool(copies)))
    if kind == "self":
        x = draw(ids)
        return [x, x]
    pair = [draw(ids), draw(odd_ids)] if kind == "odd" else list(draw(st.sampled_from(copies)))
    return pair if draw(st.booleans()) else pair[::-1]


def run_cli(args):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in args])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A 40-node graph and its CN split, as the CLI writes them."""
    root = tmp_path_factory.mktemp("pairs")
    code, err = run_cli(["synth", "--family", "sbm", "--n", 40, "--blocks", 2,
                         "--p-in", 0.4, "--p-out", 0.02, "--feature-mode", "node-onehot",
                         "--seed", 2, "--out", root / "graph"])
    assert code == 0, err
    code, err = run_cli(["split", "--edges", root / "graph" / "edges.tsv",
                         "--features", root / "graph" / "features.csv",
                         "--heuristic", "CN", "--direction", "backward",
                         "--t1", 2, "--t2", 1, "--out", root / "split"])
    assert code == 0, err
    return root


class TestCorruptionsThroughTheCli:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_corrupt_edge_list_exits_2(self, pipeline, data):
        ids = st.integers(0, 39)
        pairs = data.draw(pair_lists(ids, odd=True, max_size=6), label="pairs")
        at = data.draw(st.integers(0, len(pairs)), label="at")
        pairs.insert(at, data.draw(bad_pairs(ids, pairs), label="bad"))
        with tempfile.TemporaryDirectory() as tmp:
            edges = os.path.join(tmp, "edges.tsv")
            write_edge_list(edges, pairs)
            code, err = run_cli(["split", "--edges", edges,
                                 "--features", pipeline / "graph" / "features.csv",
                                 "--out", os.path.join(tmp, "out")])
        assert code == 2, err
        assert "edges.tsv:" in err and "Traceback" not in err

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_corrupt_split_json_exits_5(self, pipeline, data):
        # A copy of a positive repeats it in a positive list and is an edge
        # in a negative one; a copy of a negative repeats it.
        doc = json.loads((pipeline / "split" / "split.json").read_text())
        key = data.draw(st.sampled_from(BUCKET_KEYS), label="key")
        copies = [p for k in BUCKET_KEYS if k.endswith("pos") or key.endswith("neg")
                  for p in doc["edges"][k]]
        pairs = doc["edges"][key]
        at = data.draw(st.integers(0, len(pairs)), label="at")
        pairs.insert(at, data.draw(bad_pairs(st.integers(0, 39), copies), label="bad"))
        with tempfile.TemporaryDirectory() as tmp:
            split = os.path.join(tmp, "split.json")
            with open(split, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            code, err = run_cli(["pretrain-gnn", "--edges", pipeline / "graph" / "edges.tsv",
                                 "--features", pipeline / "graph" / "features.csv",
                                 "--split", split, "--epochs", 1, "--patience", 1,
                                 "--eval-k", 3, "--hidden", 8,
                                 "--out", os.path.join(tmp, "out")])
        assert code == 5, err
        assert "Traceback" not in err
