import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from counterlink import bruteforce
from counterlink.errors import DegenerateSplitError, InputError, ValidationError
from counterlink.graphs import Graph
from counterlink.rng import stream_rng
from counterlink.synth import SyntheticGraphSpec, synth_graph
from counterlink.splits import (
    DIRECTIONS,
    HEURISTICS,
    DatasetSplit,
    SplitReport,
    SplitSpec,
    generate_split,
    heuristic_value,
    load_split,
    sample_negatives,
    save_split,
    verify_split,
)
from negatives_reference import sparse_negatives_reference
from splits_reference import generate_split_reference, verify_split_reference


def graph_of(n, edges):
    return Graph.from_edge_array(n, np.array(edges, dtype=np.int64).reshape(-1, 2), np.eye(n))


def ba_graph(n, m, seed):
    """Reference preferential-attachment construction used as split fodder."""
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    urn = [x for e in edges for x in e]
    for new in range(m, n):
        targets = set()
        while len(targets) < m:
            pick = urn[int(rng.integers(0, len(urn)))] if urn else int(rng.integers(0, new))
            if pick != new:
                targets.add(pick)
        for t in targets:
            edges.append((t, new))
            urn.extend([t, new])
    return graph_of(n, edges)


def sbm_graph(sizes, p_in, p_out, seed):
    rng = np.random.default_rng(seed)
    bounds = np.cumsum([0] + list(sizes))
    n = bounds[-1]
    block = np.searchsorted(bounds, np.arange(n), side="right") - 1
    iu, ju = np.triu_indices(n, k=1)
    same = block[iu] == block[ju]
    p = np.where(same, p_in, p_out)
    mask = rng.random(iu.size) < p
    return graph_of(n, list(zip(iu[mask], ju[mask])))


class TestSpec:
    def test_rejects_bad_values(self):
        with pytest.raises(InputError):
            SplitSpec("XX", "forward", 1, 2)
        with pytest.raises(InputError):
            SplitSpec("CN", "sideways", 1, 2)
        with pytest.raises(InputError):
            SplitSpec("CN", "forward", -1, 2)
        with pytest.raises(InputError):
            SplitSpec("CN", "forward", 0.5, 2)
        with pytest.raises(InputError):
            SplitSpec("CN", "forward", 2, 2)

    def test_bucket_ranges_partition(self):
        for spec in (
            SplitSpec("CN", "forward", 1, 2),
            SplitSpec("CN", "backward", 2, 1),
            SplitSpec("PA", "forward", 100, 50),
            SplitSpec("PA", "backward", 50, 100),
        ):
            ranges = spec.bucket_ranges()
            edges = sorted({r[0] for r in ranges.values()} | {r[1] for r in ranges.values()})
            assert edges[0] == 0.0 and edges[-1] == math.inf
            # every value lands in exactly one bucket
            for val in [0, 0.5, 1, 1.5, 2, 49, 50, 75, 100, 1000, math.inf]:
                hits = [
                    b
                    for b, (lo, hi) in ranges.items()
                    if lo <= val < hi or (val == math.inf and hi == math.inf)
                ]
                assert len(hits) == 1, (spec, val, hits)


class TestBucketing:
    def test_cn_forward_examples(self):
        spec = SplitSpec("CN", "forward", 1, 2)
        r = spec.bucket_ranges()
        assert r["train"] == (0.0, 1.0)
        assert r["valid"] == (1.0, 2.0)
        assert r["test"] == (2.0, math.inf)

    def test_cn_backward_examples(self):
        spec = SplitSpec("CN", "backward", 2, 1)
        r = spec.bucket_ranges()
        assert r["train"] == (2.0, math.inf)
        assert r["test"] == (0.0, 1.0)

    def test_pa_forward_orientation_on_ba_sample(self):
        g = ba_graph(100, 2, seed=4)
        spec = SplitSpec("PA", "forward", 100, 50, seed=1)
        split = generate_split(g, spec)
        adj = bruteforce.adjacency_sets(g.num_nodes, g.edges())
        for u, v in split.test_pos:
            assert bruteforce.pa_brute(adj, int(u), int(v)) >= 100
        for u, v in split.train_pos:
            assert bruteforce.pa_brute(adj, int(u), int(v)) < 50
        for u, v in split.valid_pos:
            assert 50 <= bruteforce.pa_brute(adj, int(u), int(v)) < 100

    def test_membership_recomputed_from_full_graph(self):
        g = sbm_graph([40, 40], 0.25, 0.02, seed=9)
        spec = SplitSpec("CN", "backward", 2, 1, seed=3)
        split = generate_split(g, spec)

        def cn(edges):
            return heuristic_value(g, edges[:, 0], edges[:, 1], "CN")

        assert (cn(split.train_pos) >= 2).all()
        assert (cn(split.valid_pos) == 1).all()
        assert (cn(split.test_pos) == 0).all()

    def test_observed_graph_hides_valid_test(self):
        g = sbm_graph([40, 40], 0.25, 0.02, seed=9)
        split = generate_split(g, SplitSpec("CN", "backward", 2, 1, seed=3))
        obs = split.observed_graph
        assert obs.edge_count == split.train_pos.shape[0]
        for u, v in split.valid_pos:
            assert not obs.has_edge(int(u), int(v))
        for u, v in split.test_pos:
            assert not obs.has_edge(int(u), int(v))
        assert np.array_equal(obs.features, g.features)

    def test_degenerate_bucket_named(self):
        g = graph_of(4, [(0, 1), (1, 2), (2, 3)])  # path: every edge CN=0
        with pytest.raises(DegenerateSplitError, match="valid"):
            generate_split(g, SplitSpec("CN", "forward", 1, 2))

    def test_seed_changes_negatives_not_positives(self):
        g = sbm_graph([30, 30], 0.3, 0.03, seed=2)
        a = generate_split(g, SplitSpec("CN", "forward", 1, 2, seed=10))
        b = generate_split(g, SplitSpec("CN", "forward", 1, 2, seed=11))
        assert np.array_equal(a.train_pos, b.train_pos)
        assert np.array_equal(a.test_pos, b.test_pos)
        assert not np.array_equal(a.train_neg, b.train_neg)


SPLIT_GRAPHS = {
    "sbm120": SyntheticGraphSpec("sbm", 120, blocks=3, p_in=0.1, p_out=0.005, seed=1),
    "sbm200": SyntheticGraphSpec("sbm", 200, blocks=4, p_in=0.12, p_out=0.004, seed=2),
    "ba150": SyntheticGraphSpec("ba", 150, m=2, seed=3),
    "ba300": SyntheticGraphSpec("ba", 300, m=3, seed=4),
}
SPLIT_THRESHOLDS = {"CN": (1, 2), "SP": (3, 4), "PA": (20, 60)}


class TestSplitMatchesReference:
    """generate_split computes one heuristic per edge list; its split.json
    must equal the per-edge loop's byte for byte. Every case fills all three
    buckets; the preferential-attachment graphs and the SBM blocks both hold
    hubs."""

    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize("heuristic", HEURISTICS)
    @pytest.mark.parametrize("graph", sorted(SPLIT_GRAPHS))
    def test_split_bytes(self, graph, heuristic, direction, tmp_path):
        g = synth_graph(SPLIT_GRAPHS[graph])
        spec = SplitSpec(heuristic, direction, *SPLIT_THRESHOLDS[heuristic], seed=5)
        save_split(generate_split_reference(g, spec), tmp_path / "reference.json")
        save_split(generate_split(g, spec), tmp_path / "split.json")
        assert ((tmp_path / "split.json").read_bytes()
                == (tmp_path / "reference.json").read_bytes())


class TestNegatives:
    def test_complete_graph_has_no_candidates(self):
        g = graph_of(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        with pytest.raises(InputError):
            sample_negatives(g, 1, rng=stream_rng(0, "negatives"))

    def test_single_candidate(self):
        g = graph_of(3, [(0, 1), (1, 2)])
        assert sample_negatives(g, 1, rng=stream_rng(5, "negatives")).tolist() == [[0, 2]]

    def test_determinism(self):
        g = sbm_graph([20, 20], 0.2, 0.05, seed=1)
        a = sample_negatives(g, 30, rng=stream_rng(42, "negatives"))
        b = sample_negatives(g, 30, rng=stream_rng(42, "negatives"))
        assert np.array_equal(a, b)

    def test_negatives_are_non_edges_and_distinct(self):
        g = sbm_graph([20, 20], 0.3, 0.05, seed=6)
        neg = sample_negatives(g, 50, rng=stream_rng(7, "negatives"))
        keys = {tuple(e) for e in neg.tolist()}
        assert len(keys) == 50
        for u, v in neg:
            assert u < v and not g.has_edge(int(u), int(v))


    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_dense_branch_matches_enumeration(self, seed):
        def enumerated(g, count, rng):
            # The n x n enumeration the dense branch replaced, kept as the oracle.
            dense = np.zeros((g.num_nodes, g.num_nodes), dtype=bool)
            e = g.edges()
            if e.size:
                dense[e[:, 0], e[:, 1]] = True
            iu, ju = np.triu_indices(g.num_nodes, k=1)
            cand = np.stack([iu, ju], axis=1)[~dense[iu, ju]]
            pick = rng.choice(cand.shape[0], size=count, replace=False)
            return cand[np.sort(pick)]

        rng = np.random.default_rng(seed)
        for n, p in ((2, 0.0), (6, 0.0), (9, 0.5), (12, 0.8), (15, 0.95)):
            iu, ju = np.triu_indices(n, k=1)
            keep = rng.random(iu.size) < p
            g = graph_of(n, np.stack([iu[keep], ju[keep]], axis=1))
            pool = g.non_edge_count()
            for count in sorted({pool, pool // 2 + 1, pool // 3 + 1} - {0}):
                got = sample_negatives(g, count, rng=stream_rng(seed, "negatives"))
                want = enumerated(g, count, stream_rng(seed, "negatives"))
                assert got.dtype == want.dtype and np.array_equal(got, want)


class TestSparseNegativesMatchReference:
    @pytest.mark.parametrize("n", [2, 3, 7, 300, 1500, 2**31 - 1, 2**33])
    def test_array_draws_equal_scalar_draws(self, n):
        # The premise of the batched branch: one array call of integers()
        # returns the scalar calls' values and leaves the generator where
        # they leave it.
        for seed in range(3):
            scalar, batched = np.random.default_rng(seed), np.random.default_rng(seed)
            one_by_one = [int(scalar.integers(0, n)) for _ in range(301)]
            assert batched.integers(0, n, size=301).tolist() == one_by_one
            assert scalar.bit_generator.state == batched.bit_generator.state

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_byte_identical_to_one_pair_loop(self, data):
        n = data.draw(st.integers(3, 40), label="n")
        iu, ju = np.triu_indices(n, k=1)
        p = data.draw(st.sampled_from([0.0, 0.1, 0.4, 0.8]), label="p")
        keep = np.random.default_rng(data.draw(st.integers(0, 99), label="graph")).random(
            iu.size) < p
        g = graph_of(n, np.stack([iu[keep], ju[keep]], axis=1))
        pool = g.non_edge_count()
        # count * 3 <= pool forces the sparse branch.
        count = data.draw(st.one_of(st.just(0), st.just(pool // 3),
                                    st.integers(0, pool // 3)), label="count")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        got = sample_negatives(g, count, rng=stream_rng(seed, "negatives"))
        want = sparse_negatives_reference(g, count, stream_rng(seed, "negatives"))
        assert got.dtype == want.dtype and got.shape == (count, 2)
        assert got.tobytes() == want.tobytes()

    def test_multi_round_draws_are_exercised(self):
        # 51 of 66 pairs are edges, so a round keeps few of its candidates
        # and the next round must continue the stream where it stopped.
        class CountingRng:
            def __init__(self, rng):
                self.rng, self.rounds = rng, 0

            def integers(self, *args, **kwargs):
                self.rounds += 1
                return self.rng.integers(*args, **kwargs)

        g = graph_of(12, [(i, j) for i in range(12) for j in range(i + 1, 12)
                          if (i + j) % 4])
        count = g.non_edge_count() // 3
        for seed in range(10):
            rng = CountingRng(stream_rng(seed, "negatives"))
            got = sample_negatives(g, count, rng=rng)
            want = sparse_negatives_reference(g, count, stream_rng(seed, "negatives"))
            assert rng.rounds > 1
            assert got.tobytes() == want.tobytes()


class TestVerify:
    def make_split(self):
        g = sbm_graph([40, 40], 0.25, 0.02, seed=9)
        return g, generate_split(g, SplitSpec("CN", "backward", 2, 1, seed=3))

    def test_fresh_split_clean(self):
        g, split = self.make_split()
        report = verify_split(g, split)
        assert len(report.violations) == 0
        assert report.bucket_counts["train"] == split.train_pos.shape[0]
        assert "sorted boundaries" in report.interpretation

    def test_moved_edge_detected(self):
        g, split = self.make_split()
        moved = split.train_pos[:1]
        split.train_pos = split.train_pos[1:]
        split.test_pos = np.concatenate([split.test_pos, moved])
        with pytest.raises(ValidationError, match="1 bucket violation"):
            verify_split(g, split)

    def test_self_pair_negative_rejected(self):
        g, split = self.make_split()
        split.test_neg = split.test_neg.copy()
        split.test_neg[0] = [5, 5]
        with pytest.raises(ValidationError, match=r"test_neg holds the self-pair \[5, 5\]"):
            verify_split(g, split)

    def test_negative_repeated_within_bucket_rejected(self):
        g, split = self.make_split()
        split.valid_neg = split.valid_neg.copy()
        split.valid_neg[1] = split.valid_neg[2]
        u, v = split.valid_neg[2].tolist()
        with pytest.raises(ValidationError,
                           match=rf"valid_neg repeats the pair \[{u}, {v}\], already in valid_neg"):
            verify_split(g, split)

    def test_negative_repeated_across_buckets_rejected(self):
        # Reversed endpoints name the same undirected pair.
        g, split = self.make_split()
        split.test_neg = split.test_neg.copy()
        split.test_neg[0] = split.train_neg[3][::-1]
        v, u = split.train_neg[3].tolist()
        with pytest.raises(ValidationError,
                           match=rf"test_neg repeats the pair \[{u}, {v}\], already in train_neg"):
            verify_split(g, split)

    def test_empty_negative_set_rejected(self):
        g, split = self.make_split()
        split.train_neg = np.empty((0, 2), dtype=np.int64)
        with pytest.raises(ValidationError, match="negative set is empty"):
            verify_split(g, split)


def _move(bucket, count, to="test"):
    """Move the first `count` positives of a bucket to the end of another."""
    def corrupt(g, split):
        moved = split.pos(bucket)[:count]
        setattr(split, f"{bucket}_pos", split.pos(bucket)[count:])
        setattr(split, f"{to}_pos", np.concatenate([split.pos(to), moved]))
    return corrupt


def _set_negative(bucket, i, pair):
    """Replace one negative; `pair(g, split)` gives the new one."""
    def corrupt(g, split):
        negs = split.neg(bucket).copy()
        negs[i] = pair(g, split)
        setattr(split, f"{bucket}_neg", negs)
    return corrupt


def _move_unreachable(g, split):
    # Edges whose exclude-edge SP is infinite (bridges) belong to the
    # bucket that reaches inf; move one of them elsewhere.
    home = "test" if split.spec.direction == "forward" else "train"
    values = heuristic_value(g, split.pos(home)[:, 0], split.pos(home)[:, 1], "SP")
    at = np.flatnonzero(values == math.inf)
    assert at.size, "the graph has no bridge to move"
    split.valid_pos = np.concatenate([split.valid_pos, split.pos(home)[at[:1]]])
    setattr(split, f"{home}_pos", np.delete(split.pos(home), at[0], axis=0))


def _violation_then_raise(g, split):
    _move("train", 1)(g, split)
    _set_negative("test", 0, lambda g, s: [5, 5])(g, split)


def _empty_negatives(g, split):
    split.train_neg = np.empty((0, 2), dtype=np.int64)


def _edge_negatives(g, split):
    _set_negative("valid", 0, lambda g, s: s.train_pos[0])(g, split)
    _set_negative("test", 1, lambda g, s: s.valid_pos[0][::-1])(g, split)


CORRUPTIONS = {
    "clean": lambda g, split: None,
    "one_moved": _move("train", 1),
    "twelve_moved": _move("train", 12),
    "self_pair": _set_negative("test", 0, lambda g, s: [5, 5]),
    "repeat_within": _set_negative("valid", 1, lambda g, s: s.valid_neg[2]),
    "reversed_repeat_across": _set_negative("test", 0, lambda g, s: s.train_neg[3][::-1]),
    "edge_negatives": _edge_negatives,
    "empty_negatives": _empty_negatives,
    "violation_then_raise": _violation_then_raise,
}


def verdicts(g, split):
    """verify_split's outcome with the batched heuristics, with the per-pair
    references, and from the per-pair reference loop: a SplitReport or the
    ValidationError text."""
    out = []
    for check in (lambda g, s: verify_split(g, s, heuristic=heuristic_value), verify_split,
                  verify_split_reference):
        try:
            out.append(check(g, split))
        except ValidationError as exc:
            out.append(str(exc))
    return out


class TestVerifyMatchesReference:
    """Batched verification and the per-pair reference loop agree on every
    report and every error text, in the order faults are found."""

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize("heuristic", HEURISTICS)
    def test_same_verdict(self, heuristic, direction, corruption):
        g = synth_graph(SPLIT_GRAPHS["sbm120"])
        split = generate_split(g, SplitSpec(heuristic, direction,
                                            *SPLIT_THRESHOLDS[heuristic], seed=5))
        CORRUPTIONS[corruption](g, split)
        batched, reference, loop = verdicts(g, split)
        assert batched == reference == loop
        assert isinstance(batched, SplitReport) == (corruption == "clean")
        if corruption == "twelve_moved":
            assert batched.startswith("12 bucket violation(s), first 10: ")

    @pytest.mark.parametrize("cells", [None, 64])
    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_unreachable_pairs(self, monkeypatch, direction, cells):
        # 64 cells split the SP masks of this graph into many chunks.
        from counterlink import graphs

        if cells:
            monkeypatch.setattr(graphs, "_HEURISTIC_CELLS", cells)
        g = synth_graph(SPLIT_GRAPHS["sbm120"])
        split = generate_split(g, SplitSpec("SP", direction, 3, 4, seed=5))
        batched, reference, loop = verdicts(g, split)
        assert batched == reference == loop and isinstance(batched, SplitReport)
        _move_unreachable(g, split)
        batched, reference, loop = verdicts(g, split)
        assert batched == reference == loop
        assert "'bucket': 'valid'" in batched and "'value': inf" in batched


class TestSplitReadsOnlyToItsBound:
    """An SP split reads each value only up to its upper threshold hi, so no
    search goes deeper: with hi = 4 no pair meets in the middle, and with
    hi = 6 no level grows past combined depth 5. The work is counted in
    search levels, never in seconds, and the buckets are those of the exact
    values."""

    def test_levels_stop_at_the_upper_threshold(self, monkeypatch):
        from counterlink import graphs

        depths = []  # per _meet_in_middle call, the combined depth it reached
        meet, expand = graphs._meet_in_middle, graphs._expand

        def counted_meet(*args):
            depths.append(1)
            return meet(*args)

        def counted_expand(*args):
            # The first call grows both sides to depth 1, each later one
            # grows one side by a level.
            depths[-1] += 1
            return expand(*args)

        monkeypatch.setattr(graphs, "_meet_in_middle", counted_meet)
        monkeypatch.setattr(graphs, "_expand", counted_expand)
        g = synth_graph(SyntheticGraphSpec("er", 2000, p=4 / 1999, seed=0))
        e = g.edges()
        exact = graphs.shortest_path_length(g, e[:, 0], e[:, 1])
        assert max(depths) > 5 and (exact == math.inf).any()
        for (t1, t2), deepest in (((3, 4), None), ((5, 6), 5)):
            for direction in DIRECTIONS:
                depths.clear()
                spec = SplitSpec("SP", direction, t1, t2, seed=1)
                split = generate_split(g, spec)
                verify_split(g, split, heuristic=heuristic_value)
                assert max(depths, default=None) == deepest, (t1, t2)
                for b in ("train", "valid", "test"):
                    lo, hi = spec.bucket_ranges()[b]
                    want = e[(lo <= exact) & ((exact < hi) | (hi == math.inf))]
                    assert np.array_equal(split.pos(b), want), (t1, t2, direction, b)


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        g = sbm_graph([40, 40], 0.25, 0.02, seed=9)
        split = generate_split(g, SplitSpec("CN", "backward", 2, 1, seed=3))
        path = tmp_path / "split.json"
        save_split(split, path)
        loaded = load_split(path, g)
        for name in ("train_pos", "valid_pos", "test_pos", "train_neg", "valid_neg", "test_neg"):
            assert np.array_equal(getattr(loaded, name), getattr(split, name)), name
        assert loaded.spec == split.spec

    def test_loader_revalidates(self, tmp_path):
        g = sbm_graph([40, 40], 0.25, 0.02, seed=9)
        split = generate_split(g, SplitSpec("CN", "backward", 2, 1, seed=3))
        path = tmp_path / "split.json"
        save_split(split, path)
        doc = json.loads(path.read_text())
        doc["edges"]["test_pos"].append(doc["edges"]["train_pos"][0])
        doc["edges"]["train_pos"] = doc["edges"]["train_pos"][1:]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
            load_split(path, g)

    def test_loader_rejects_malformed_negatives(self, tmp_path):
        g = sbm_graph([40, 40], 0.25, 0.02, seed=9)
        split = generate_split(g, SplitSpec("CN", "backward", 2, 1, seed=3))
        path = tmp_path / "split.json"
        save_split(split, path)
        doc = json.loads(path.read_text())
        doc["edges"]["test_neg"][1] = doc["edges"]["test_neg"][2]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="test_neg repeats the pair"):
            load_split(path, g)

    @pytest.mark.parametrize("corruption", [
        "distance_two_non_edge", "dropped", "reversed_copy", "self_pair", "repeat_within"])
    def test_positives_must_be_the_graphs_edges(self, tmp_path, corruption):
        # Each of these used to load: the first put a fake edge into the
        # training adjacency, the third scored one edge twice.
        g = sbm_graph([40, 40], 0.25, 0.02, seed=9)
        split = generate_split(g, SplitSpec("CN", "backward", 2, 1, seed=3))
        path = tmp_path / "split.json"
        save_split(split, path)
        doc = json.loads(path.read_text())
        pos = doc["edges"]
        if corruption == "distance_two_non_edge":
            adj = bruteforce.adjacency_sets(g.num_nodes, g.edges())
            u, v = pos["train_pos"][0]
            w = min(adj[v] - adj[u] - {u})
            pos["train_pos"][0] = [u, w]
            message = rf"train_pos holds \[{u}, {w}\], which is not an edge of the graph"
        elif corruption == "dropped":
            u, v = pos["valid_pos"].pop(0)
            message = rf"the graph's edge \[{u}, {v}\] is in no positive bucket"
        elif corruption == "reversed_copy":
            u, v = pos["train_pos"][0]
            pos["test_pos"].append([v, u])
            message = rf"test_pos repeats the edge \[{v}, {u}\], already in train_pos"
        elif corruption == "self_pair":
            pos["test_pos"][0] = [5, 5]
            message = r"test_pos holds \[5, 5\], which is not an edge of the graph"
        else:
            u, v = pos["train_pos"][1]
            pos["train_pos"].append([u, v])
            message = rf"train_pos repeats the edge \[{u}, {v}\], already in train_pos"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=message):
            load_split(path, g)

    def test_ranges_surfaced_in_json(self, tmp_path):
        g = ba_graph(100, 2, seed=4)
        split = generate_split(g, SplitSpec("PA", "forward", 100, 50, seed=1))
        path = tmp_path / "split.json"
        save_split(split, path)
        doc = json.loads(path.read_text())
        assert doc["bucket_ranges"]["train"] == [0.0, 50.0]
        assert doc["bucket_ranges"]["test"] == [100.0, "inf"]
