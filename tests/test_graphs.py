import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from counterlink import bruteforce, graphs
from counterlink.errors import InputError
from counterlink.gnn import gcn_layers
from counterlink.graphs import (
    Csr,
    Edge,
    Graph,
    NEGATIVE,
    POSITIVE,
    UNREACHABLE,
    build_features,
    common_neighbors,
    extract_enclosing_subgraph,
    extract_for_links,
    load_edge_list,
    load_graph,
    make_batch,
    normalize_adjacency,
    preferential_attachment,
    save_edge_list,
    save_features_csv,
    shortest_path_length,
)
from counterlink.rng import stream_rng
from counterlink.synth import SyntheticGraphSpec, synth_graph
from graphs_reference import (
    block_diag_csr_reference,
    csr_row,
    csr_to_dense,
    extract_reference,
    from_coo_reference,
    matmul_dense_reference,
    normalize_adjacency_reference,
)
from sp_reference import sp_reference


def graph_of(n, edges):
    return Graph.from_edge_array(n, np.array(edges, dtype=np.int64), np.eye(n))


def path_graph(n):
    return graph_of(n, [(i, i + 1) for i in range(n - 1)])


def triangle():
    return graph_of(3, [(0, 1), (1, 2), (0, 2)])


def star(leaves):
    return graph_of(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def random_graph(n, p, rng):
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < p
    return graph_of(n, list(zip(iu[mask], ju[mask])))


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(InputError):
            graph_of(3, [(0, 0)])

    def test_rejects_duplicate(self):
        with pytest.raises(InputError):
            graph_of(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            graph_of(3, [(0, 5)])

    def test_csr_rows_sorted_and_symmetric(self):
        g = graph_of(5, [(3, 1), (0, 4), (2, 0), (1, 0)])
        for i in range(5):
            row = csr_row(g.adjacency, i)
            assert np.all(np.diff(row) > 0)
            for j in row:
                assert i in csr_row(g.adjacency, int(j))
        assert not any(i in csr_row(g.adjacency, i) for i in range(5))

    def test_edges_roundtrip(self):
        g = graph_of(4, [(0, 1), (2, 3), (1, 3)])
        assert g.edges().tolist() == [[0, 1], [1, 3], [2, 3]]
        assert g.edge_count == 3


def one_pair(fn, g, u, v, **kw):
    """fn's value for the single pair (u, v), passed as one-element lists."""
    [value] = fn(g, [u], [v], **kw).tolist()
    return value


class TestHeuristics:
    def test_cn_triangle(self):
        assert one_pair(common_neighbors, triangle(), 0, 1) == 1

    def test_cn_path3(self):
        assert one_pair(common_neighbors, path_graph(3), 0, 2) == 1

    def test_cn_path4(self):
        assert one_pair(common_neighbors, path_graph(4), 0, 3) == 0

    def test_sp_path4_no_exclude(self):
        assert one_pair(shortest_path_length, path_graph(4), 0, 3) == 3

    def test_sp_triangle_exclude(self):
        assert one_pair(shortest_path_length, triangle(), 0, 1) == 2

    def test_sp_disconnected(self):
        g = graph_of(4, [(0, 1), (2, 3)])
        assert one_pair(shortest_path_length, g, 0, 2) == UNREACHABLE

    def test_pa_star_leaves(self):
        g = star(3)
        assert one_pair(preferential_attachment, g, 1, 2) == 1

    def test_pa_star_center(self):
        g = star(3)
        assert one_pair(preferential_attachment, g, 0, 1) == 3

    def test_pa_triangle(self):
        assert one_pair(preferential_attachment, triangle(), 0, 1) == 4

    def test_out_of_range_raises(self):
        g = triangle()
        for fn in (common_neighbors, preferential_attachment):
            with pytest.raises(InputError):
                fn(g, [0], [7])
        with pytest.raises(InputError):
            shortest_path_length(g, [-1], [0])

    def test_agree_with_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            n = int(rng.integers(5, 51))
            g = random_graph(n, float(rng.uniform(0.05, 0.4)), rng)
            adj = bruteforce.adjacency_sets(n, g.edges())
            pairs = []
            for _ in range(40):
                u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
                if u != v:
                    pairs.append((u, v))
            # One call per graph and heuristic checks every pair.
            a, b = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
            assert common_neighbors(g, a, b).tolist() == [
                bruteforce.cn_brute(adj, u, v) for u, v in pairs]
            assert preferential_attachment(g, a, b).tolist() == [
                bruteforce.pa_brute(adj, u, v) for u, v in pairs]
            expected = [sp_reference(adj, u, v) for u, v in pairs]
            assert shortest_path_length(g, a, b).tolist() == expected
            assert [bruteforce.sp_brute(adj, u, v) for u, v in pairs] == expected

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_sp_agrees_with_reference_bfs(self, data):
        # Two random parts, each possibly disconnected, joined by at most one
        # bridge edge, whose value, its own edge left out, must be unreachable.
        sizes = data.draw(st.tuples(st.integers(1, 20), st.integers(1, 20)), label="sizes")
        n = sum(sizes)
        edges = set()
        for lo, size in ((0, sizes[0]), (sizes[0], sizes[1])):
            pairs = [(lo + i, lo + j) for i in range(size) for j in range(i + 1, size)]
            if pairs:
                edges |= data.draw(st.sets(st.sampled_from(pairs)), label="part")
        bridge = data.draw(
            st.none() | st.tuples(st.integers(0, sizes[0] - 1), st.integers(sizes[0], n - 1)),
            label="bridge",
        )
        if bridge is not None:
            edges.add(bridge)
        g = graph_of(n, sorted(edges))
        adj = bruteforce.adjacency_sets(n, g.edges())

        # Every ordered pair is checked, in one call on the production path.
        todo = [(u, v) for u in range(n) for v in range(n)]
        expected = [sp_reference(adj, u, v) for u, v in todo]
        a, b = np.array(todo, dtype=np.int64).T
        assert shortest_path_length(g, a, b).tolist() == expected
        assert [bruteforce.sp_brute(adj, u, v) for u, v in todo] == expected
        value = dict(zip(todo, expected))
        for u in range(n):
            assert value[u, u] == 0
            for v in range(u + 1, n):
                assert value[v, u] == value[u, v] != 1
        if bridge is not None:
            assert value[bridge] == UNREACHABLE


def heuristic_families(rng):
    """(graph, u, v) cases: random graphs with isolated nodes, two random
    parts joined by one bridge, and a 3,000-leaf star. Each pair list holds
    every edge both ways, self-pairs and random pairs, non-edges included."""
    cases = []
    for _ in range(12):
        n = int(rng.integers(2, 40))
        cases.append(random_graph(n, float(rng.uniform(0.0, 0.25)), rng))
    for _ in range(6):
        a, b = (int(x) for x in rng.integers(1, 20, size=2))
        left = random_graph(a, 0.3, rng).edges()
        right = random_graph(b, 0.3, rng).edges() + a
        bridge = [[int(rng.integers(0, a)), a + int(rng.integers(0, b))]]
        cases.append(graph_of(a + b, np.concatenate([left, right, bridge])))
    out = []
    for g in cases:
        n, e = g.num_nodes, g.edges()
        pick = rng.integers(0, n, size=(2, 60))
        u = np.concatenate([e[:, 0], e[:, 1], np.arange(n), pick[0]])
        v = np.concatenate([e[:, 1], e[:, 0], np.arange(n), pick[1]])
        out.append((g, u, v))
    g = star(3000)
    leaves = rng.integers(1, 3001, size=(2, 150))
    u = np.concatenate([np.zeros(150, dtype=np.int64), leaves[0], [0, 5]])
    v = np.concatenate([leaves[1], leaves[0][::-1], [0, 5]])
    out.append((g, u, v))
    return out


class TestBatchedHeuristics:
    """One call per pair list must give, pair by pair, the reference values.
    The work arrays are capped at a few cells, so every call runs over
    several chunks, and the star's hub row alone exceeds the cap."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(graphs, "_HEURISTIC_CELLS", 64)

    def test_match_references(self):
        rng = np.random.default_rng(13)
        for g, u, v in heuristic_families(rng):
            adj = bruteforce.adjacency_sets(g.num_nodes, g.edges())
            pairs = list(zip(u.tolist(), v.tolist()))
            cn = common_neighbors(g, u, v)
            pa = preferential_attachment(g, u, v)
            assert cn.tolist() == [bruteforce.cn_brute(adj, a, b) for a, b in pairs]
            assert pa.tolist() == [bruteforce.pa_brute(adj, a, b) for a, b in pairs]
            sp = shortest_path_length(g, u, v)
            assert sp.dtype == np.float64 and sp.shape == u.shape
            assert sp.tolist() == [sp_reference(adj, a, b) for a, b in pairs]

    def test_bidirectional_sp_brute_matches_reference(self):
        rng = np.random.default_rng(14)
        for g, u, v in heuristic_families(rng):
            adj = bruteforce.adjacency_sets(g.num_nodes, g.edges())
            for a, b in zip(u.tolist(), v.tolist()):
                assert bruteforce.sp_brute(adj, a, b) == sp_reference(adj, a, b)

    def test_zero_d_id_raises(self):
        g = graph_of(5, [(0, 1), (1, 2), (3, 4)])
        for fn in (common_neighbors, preferential_attachment, shortest_path_length):
            for u, v in ((0, 2), (np.int64(0), np.int64(2)), (np.array(0), [2])):
                with pytest.raises(InputError, match="1-d id arrays"):
                    fn(g, u, v)
            assert isinstance(fn(g, [0], [2]), np.ndarray)
        assert shortest_path_length(g, [0], [3]).tolist() == [UNREACHABLE]
        assert shortest_path_length(g, [2], [2]).tolist() == [0]

    def test_empty_and_malformed_lists(self):
        g = triangle()
        none = np.empty(0, dtype=np.int64)
        for fn in (common_neighbors, preferential_attachment, shortest_path_length):
            assert fn(g, none, none).shape == (0,)
            with pytest.raises(InputError):
                fn(g, [0, 1], [2])
            with pytest.raises(InputError):
                fn(g, [0, 1], [2, 3])
        assert common_neighbors(graph_of(3, []), [0, 1], [1, 2]).tolist() == [0, 0]


def two_hop_hub():
    """Hub 0 joined to 512 nodes, each joined to the same 512 others, all
    joined to node 1025: nodes 0 and 1025 are 3 apart, and each one's
    two-hop count, 512 * 513, exceeds the default _HEURISTIC_CELLS."""
    ring, far = np.arange(1, 513), np.arange(513, 1025)
    edges = np.concatenate([
        np.stack([np.zeros(512, dtype=np.int64), ring], axis=1),
        np.stack(np.meshgrid(ring, far, indexing="ij"), axis=-1).reshape(-1, 2),
        np.stack([far, np.full(512, 1025)], axis=1),
    ])
    g = graph_of(1026, edges)
    deg = g.degrees()
    assert np.bincount(g.adjacency.row_ids(), weights=deg[g.adjacency.indices])[[0, 1025]].min() \
        > 1 << 18
    return g, np.array([0, 1025, 0, 1, 513, 0, 7]), np.array([1025, 0, 0, 513, 1025, 600, 900])


def oracle_cases(rng):
    """(name, graph, u, v): SBM, BA and ER graphs with every edge both ways,
    self-pairs and random pairs; a graph with isolated nodes and two
    components; a 4-cycle, whose linked pairs' only other path has length 3;
    and the two-hop hub."""
    cases = []
    for spec in (SyntheticGraphSpec("sbm", 120, blocks=4, p_in=0.12, p_out=0.004, seed=3),
                 SyntheticGraphSpec("ba", 100, m=2, seed=4),
                 SyntheticGraphSpec("er", 120, p=0.02, seed=5)):
        g = synth_graph(spec)
        n, e = g.num_nodes, g.edges()
        pick = rng.integers(0, n, size=(2, 300))
        cases.append((spec.family, g, np.concatenate([e[:, 0], e[:, 1], np.arange(n), pick[0]]),
                      np.concatenate([e[:, 1], e[:, 0], np.arange(n), pick[1]])))
    split = graph_of(9, [(0, 1), (1, 2), (2, 3), (5, 6), (6, 7)])
    cases.append(("isolated", split, np.array([0, 0, 4, 4, 3, 5, 8]), np.array([3, 5, 4, 0, 7, 7, 2])))
    square = graph_of(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    cases.append(("square", square, np.array([0, 1, 2, 3, 0, 1]), np.array([1, 2, 3, 0, 2, 3])))
    cases.append(("hub", *two_hop_hub()))
    return cases


class TestHeuristicKernelsMatchOracle:
    """The mask kernels behind CN and SP equal the bruteforce oracle pair by
    pair, with the work arrays cut to 64 cells and at the default bound. SP
    bounded at a depth, on either path, is the exact value capped there."""

    @pytest.mark.parametrize("cells", [64, None])
    def test_match_bruteforce(self, monkeypatch, cells):
        if cells:
            monkeypatch.setattr(graphs, "_HEURISTIC_CELLS", cells)
        seen = set()
        for name, g, u, v in oracle_cases(np.random.default_rng(23)):
            adj = bruteforce.adjacency_sets(g.num_nodes, g.edges())
            pairs = list(zip(u.tolist(), v.tolist()))
            assert common_neighbors(g, u, v).tolist() == [
                bruteforce.cn_brute(adj, a, b) for a, b in pairs], name
            exact = [bruteforce.sp_brute(adj, a, b) for a, b in pairs]
            assert shortest_path_length(g, u, v).tolist() == exact, name
            for bound in (2, 3, 4, 5, 6):
                want = [min(x, bound) for x in exact]
                assert shortest_path_length(g, u, v, bound).tolist() == want, (name, bound)
                assert [bruteforce.sp_brute(adj, a, b, bound) for a, b in pairs] == want, \
                    (name, bound)
            seen.update(exact)
        # Every bound cuts some finite distance and some unreachable pair.
        assert {0, 2, 3, 4, 5, 6, 7, UNREACHABLE} <= seen

    def test_named_cases(self):
        cases = {name: (g, u, v) for name, g, u, v in oracle_cases(np.random.default_rng(0))}
        g, u, v = cases["square"]
        assert shortest_path_length(g, u, v).tolist() == [3] * 4 + [2, 2]
        g, u, v = cases["isolated"]
        assert shortest_path_length(g, u, v).tolist() == [
            3, UNREACHABLE, 0, UNREACHABLE, UNREACHABLE, 2, UNREACHABLE]
        g, u, v = cases["hub"]
        assert shortest_path_length(g, u, v).tolist()[:3] == [3, 3, 0]


class TestExtraction:
    def test_path5_union(self):
        g = path_graph(5)
        sub = extract_enclosing_subgraph(g, Edge(1, 3), k=1, exclude_target_edge=False)
        assert sorted(sub.node_map.tolist()) == [0, 1, 2, 3, 4]
        lab = {int(sub.node_map[i]): sub.labels[i] for i in range(5)}
        assert lab[1] == 1 and lab[3] == 1
        assert sum(lab.values()) == 2

    def test_label_sum_always_two(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(6, 30))
            g = random_graph(n, 0.2, rng)
            u, v = rng.choice(n, size=2, replace=False)
            sub = extract_enclosing_subgraph(g, Edge(int(u), int(v)), k=2)
            assert sub.labels.sum() == 2.0
            assert sub.labels[0] == 1.0 and sub.labels[1] == 1.0

    def test_star_negative_edge(self):
        # center 0, leaves 1,2,3; candidate link (1,2)
        g = star(3)
        sub = extract_enclosing_subgraph(g, Edge(1, 2), k=1)
        assert sorted(sub.node_map.tolist()) == [0, 1, 2]
        pairs = {
            tuple(sorted((int(sub.node_map[i]), int(sub.node_map[j]))))
            for i, j in zip(*np.nonzero(sub.local_adjacency))
            if i < j
        }
        assert pairs == {(0, 1), (0, 2)}

    def test_target_edge_excluded_for_positive(self):
        g = triangle()
        sub = extract_enclosing_subgraph(g, Edge(0, 1), k=1, exclude_target_edge=True)
        assert sub.local_adjacency[0, 1] == 0.0
        assert sub.local_adjacency[1, 0] == 0.0
        kept = extract_enclosing_subgraph(g, Edge(0, 1), k=1, exclude_target_edge=False)
        assert kept.local_adjacency[0, 1] == 1.0

    def test_local_edges_map_to_global(self):
        rng = np.random.default_rng(11)
        g = random_graph(25, 0.25, rng)
        sub = extract_enclosing_subgraph(g, Edge(0, 1), k=2, exclude_target_edge=False)
        for i, j in zip(*np.nonzero(sub.local_adjacency)):
            assert g.has_edge(int(sub.node_map[i]), int(sub.node_map[j]))

    def test_max_nodes_cap_keeps_targets(self):
        rng = np.random.default_rng(5)
        g = random_graph(40, 0.5, rng)
        sub = extract_enclosing_subgraph(
            g, Edge(3, 9), k=1, max_nodes=6, rng=np.random.default_rng(0)
        )
        assert sub.num_nodes == 6
        assert sub.node_map[0] == 3 and sub.node_map[1] == 9

    def test_determinism_byte_identical(self):
        rng = np.random.default_rng(9)
        g = random_graph(60, 0.4, rng)
        a = extract_enclosing_subgraph(g, Edge(2, 5), k=1, max_nodes=10,
                                       rng=np.random.default_rng(42))
        b = extract_enclosing_subgraph(g, Edge(2, 5), k=1, max_nodes=10,
                                       rng=np.random.default_rng(42))
        assert a.node_map.tobytes() == b.node_map.tobytes()
        assert a.local_adjacency.tobytes() == b.local_adjacency.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_extract_for_links_order_independent(self):
        rng = np.random.default_rng(13)
        g = random_graph(50, 0.5, rng)
        links = [Edge(0, 1), Edge(2, 3), Edge(4, 5)]
        fwd = extract_for_links(g, links, k=1, max_nodes=8, seed=17)
        rev = extract_for_links(g, list(reversed(links)), k=1, max_nodes=8, seed=17)
        for a, b in zip(fwd, reversed(rev)):
            assert a.node_map.tolist() == b.node_map.tolist()

    def test_balls_stop_growing_once_a_level_comes_out_empty(self, monkeypatch):
        # On a path of 8 nodes the ball around (0, 1) gains one node per
        # level: 6 levels grow, the 7th comes out empty and ends the loop, and
        # one more gather looks up the block's induced edges.
        calls = []
        row_entries = graphs._row_entries

        def counting_row_entries(g, nodes):
            calls.append(nodes.size)
            return row_entries(g, nodes)

        g = path_graph(8)
        whole = extract_for_links(g, [Edge(0, 1)], k=6)
        monkeypatch.setattr(graphs, "_row_entries", counting_row_entries)
        [deep] = extract_for_links(g, [Edge(0, 1)], k=50)
        assert len(calls) == 8
        assert_same_subgraph(deep, whole[0])

    def test_bad_inputs(self):
        g = triangle()
        with pytest.raises(InputError):
            extract_enclosing_subgraph(g, Edge(0, 0), k=1)
        with pytest.raises(InputError):
            extract_enclosing_subgraph(g, Edge(0, 1), k=0)
        with pytest.raises(InputError):
            extract_enclosing_subgraph(g, Edge(0, 9), k=1)


def drawn_graph(data, max_n=30):
    n = data.draw(st.integers(2, max_n), label="n")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = data.draw(st.sets(st.sampled_from(pairs)), label="edges")
    return graph_of(n, sorted(edges))


def assert_same_subgraph(a, b):
    for name in ("node_map", "local_adjacency", "labels"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name
    assert a.graph_features is b.graph_features
    assert (a.target, a.link_label) == (b.target, b.link_label)


class TestExtractionMatchesReference:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_single_link_byte_identical(self, data):
        g = drawn_graph(data)
        n = g.num_nodes
        u = data.draw(st.integers(0, n - 1), label="u")
        v = data.draw(st.integers(0, n - 1).filter(lambda x: x != u), label="v")
        k = data.draw(st.integers(1, 3), label="k")
        max_nodes = data.draw(st.integers(2, n + 1), label="max_nodes")
        exclude = data.draw(st.booleans(), label="exclude")
        label = data.draw(st.sampled_from([POSITIVE, NEGATIVE]), label="label")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        e = Edge(u, v, label)
        got = extract_enclosing_subgraph(g, e, k=k, max_nodes=max_nodes,
                                         rng=np.random.default_rng(seed),
                                         exclude_target_edge=exclude)
        want = extract_reference(g, e, k=k, max_nodes=max_nodes,
                                 rng=np.random.default_rng(seed),
                                 exclude_target_edge=exclude)
        assert_same_subgraph(got, want)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_for_links_byte_identical_with_subsampling_and_negatives(self, data):
        # Up to 40 links of both labels in one call, some listed more than
        # once; negatives keep their target edge (exclude_target_edge=False).
        g = drawn_graph(data, max_n=40)
        n = g.num_nodes
        links = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                      st.sampled_from([POSITIVE, NEGATIVE])).filter(lambda t: t[0] != t[1]),
            min_size=1, max_size=30), label="links")
        repeats = data.draw(st.lists(st.sampled_from(links), max_size=10), label="repeats")
        links = [Edge(u, v, lab) for u, v, lab in links + repeats]
        k = data.draw(st.integers(1, 3), label="k")
        max_nodes = data.draw(st.integers(2, 12), label="max_nodes")
        got = extract_for_links(g, links, k=k, max_nodes=max_nodes, seed=11)
        assert len(got) == len(links)
        for e, sub in zip(links, got):
            want = extract_reference(
                g, e, k=k, max_nodes=max_nodes,
                rng=stream_rng(11, f"extract.{e.u}.{e.v}.{e.label}"),
                exclude_target_edge=e.label == POSITIVE,
            )
            assert_same_subgraph(sub, want)

    def test_repeated_links_get_separate_blocks(self):
        g = random_graph(30, 0.3, np.random.default_rng(2))
        u, v = g.edges()[0].tolist()
        links = [Edge(u, v, POSITIVE), Edge(u, v, NEGATIVE), Edge(u, v, POSITIVE)]
        a, b, c = extract_for_links(g, links, k=2, max_nodes=1000)
        assert_same_subgraph(a, c)
        assert a.local_adjacency[0, 1] == 0.0 and b.local_adjacency[0, 1] == 1.0
        assert not np.shares_memory(a.local_adjacency, c.local_adjacency)
        a.local_adjacency[0, 1] = 7.0
        assert c.local_adjacency[0, 1] == 0.0 and b.local_adjacency[0, 1] == 1.0

    @pytest.mark.parametrize("max_nodes", [1000, 40, 8])
    def test_streams_made_only_for_subsampled_links(self, monkeypatch, max_nodes):
        made = []

        def counting_stream_rng(seed, name):
            made.append(name)
            return stream_rng(seed, name)

        monkeypatch.setattr(graphs, "stream_rng", counting_stream_rng)
        g = random_graph(40, 0.2, np.random.default_rng(4))
        links = [Edge(int(u), int(v), lab) for (u, v), lab in
                 zip(np.random.default_rng(5).choice(40, size=(25, 2)), [0, 1] * 13)
                 if u != v]
        subs = extract_for_links(g, links, k=2, max_nodes=max_nodes, seed=3)
        balls = [extract_reference(g, e, k=2, max_nodes=1000).num_nodes for e in links]
        over = [f"extract.{e.u}.{e.v}.{e.label}"
                for e, size in zip(links, balls) if size > max_nodes]
        assert made == over
        assert [s.num_nodes for s in subs] == [min(size, max_nodes) for size in balls]
        if max_nodes >= g.num_nodes:
            assert made == []
        else:
            assert made

    def test_subsampling_and_kept_negative_edge_are_exercised(self):
        g = random_graph(40, 0.5, np.random.default_rng(5))
        u, v = g.edges()[0].tolist()
        e = Edge(u, v, NEGATIVE)
        got = extract_enclosing_subgraph(g, e, k=2, max_nodes=7,
                                         rng=np.random.default_rng(1),
                                         exclude_target_edge=False)
        want = extract_reference(g, e, k=2, max_nodes=7, rng=np.random.default_rng(1),
                                 exclude_target_edge=False)
        assert got.num_nodes == 7 and got.local_adjacency[0, 1] == 1.0
        assert_same_subgraph(got, want)


def same_csr(got, want):
    return (got.shape == want.shape
            and all(getattr(got, f).tobytes() == getattr(want, f).tobytes()
                    and getattr(got, f).dtype == getattr(want, f).dtype
                    for f in ("indptr", "indices", "data")))


class TestCsrBuildMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_from_coo_byte_identical_to_lexsort(self, data):
        # Entries in any order, repeated cells included (a stable sort keeps
        # their input order) and rows left empty.
        n = data.draw(st.integers(1, 30), label="n")
        cells = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                   max_size=60), label="cells")
        vals = data.draw(st.lists(st.floats(-1e3, 1e3, allow_nan=False, width=64),
                                  min_size=len(cells), max_size=len(cells)), label="vals")
        rows = [r for r, _ in cells]
        cols = [c for _, c in cells]
        assert same_csr(Csr.from_coo(n, rows, cols, vals),
                        from_coo_reference(n, rows, cols, vals))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1), st.booleans())
    def test_normalize_adjacency_byte_identical_to_add_at(self, n, p, seed, weighted):
        rng = np.random.default_rng(seed)
        a = random_graph(n, p, rng).adjacency
        if weighted:
            a = Csr(a.indptr, a.indices, rng.random(a.indices.size), a.shape)
        assert same_csr(normalize_adjacency(a), normalize_adjacency_reference(a))


class TestCsrMatmulMatchesReference:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_byte_identical_to_add_at(self, data):
        # Rows below `lead` and from `n - trail` on stay empty; entries are
        # not mirrored, so the matrix is in general not symmetric.
        n = data.draw(st.integers(1, 25), label="n")
        lead = data.draw(st.integers(0, n), label="lead")
        trail = data.draw(st.integers(0, n - lead), label="trail")
        cells = [(r, c) for r in range(lead, n - trail) for c in range(n)]
        picked = sorted(data.draw(st.sets(st.sampled_from(cells)), label="cells")
                        if cells else set())
        values = st.floats(-1e3, 1e3, allow_nan=False, width=64)
        vals = [data.draw(values, label="val") for _ in picked]
        rows = [r for r, _ in picked]
        cols = [c for _, c in picked]
        csr = Csr.from_coo(n, rows, cols, vals)
        d = data.draw(st.integers(1, 4), label="d")
        x = np.array(data.draw(st.lists(values, min_size=n * d, max_size=n * d),
                               label="x")).reshape(n, d)
        got = csr.matmul_dense(x)
        want = matmul_dense_reference(csr, x)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_edge_cases(self):
        x = np.arange(8, dtype=np.float64).reshape(4, 2)
        empty = Csr.from_coo(4, [], [])
        assert empty.matmul_dense(x).tobytes() == np.zeros((4, 2)).tobytes()
        # Only the middle rows hold entries; one row has more than the rest.
        csr = Csr.from_coo(4, [1, 1, 1, 2], [0, 3, 2, 1], [0.5, -2.0, 1e-17, 3.0])
        assert csr.matmul_dense(x).tobytes() == matmul_dense_reference(csr, x).tobytes()
        assert not csr.matmul_dense(x)[[0, 3]].any()

    @pytest.mark.parametrize("d", [1, 32])
    def test_hub_row_finished_in_one_accumulate(self, d):
        # A 3,000-leaf star: every leaf row has one entry, the hub 3,000, so
        # after the first pass only the hub is left.
        csr = normalize_adjacency(star(3000).adjacency)
        x = np.random.default_rng(3).standard_normal((3001, d))
        want = matmul_dense_reference(csr, x)
        assert csr.matmul_dense(x).tobytes() == want.tobytes()
        # Only one row holds entries at all: the accumulate starts at 0.0.
        hub = Csr.from_coo(5, [2] * 4, [0, 1, 3, 4], [0.5, -1.0, 2.0, 1e-3])
        x = np.random.default_rng(4).standard_normal((5, d))
        assert hub.matmul_dense(x).tobytes() == matmul_dense_reference(hub, x).tobytes()

    @pytest.mark.parametrize("rows", [[0, 0, 0, 1, 1, 2], [3, 3, 3, 3], [0, 1, 2, 3]],
                             ids=["shared_passes_and_tail", "one_row", "one_entry_each"])
    def test_negative_zero_products_sum_to_positive_zero(self, rows):
        # ReLU outputs hold -0.0; a row whose products are all -0.0 sums
        # from 0.0 to +0.0, as the reference's scatter into zeros does.
        cols = list(range(len(rows)))
        csr = Csr.from_coo(max(6, len(rows)), rows, cols, [0.5] * len(rows))
        x = np.full((csr.shape[0], 3), -0.0)
        x[-1] = 1.0
        got = csr.matmul_dense(x)
        assert got.tobytes() == matmul_dense_reference(csr, x).tobytes()
        assert not np.signbit(got).any()

    def test_empty_rows_and_empty_csr(self):
        assert Csr.from_coo(0, [], []).matmul_dense(np.zeros((0, 2))).shape == (0, 2)
        x = np.random.default_rng(5).standard_normal((7, 2))
        for csr in (Csr.from_coo(7, [], []),
                    Csr.from_coo(7, [2, 2, 5], [1, 6, 0], [1.0, -3.0, 0.25])):
            assert csr.matmul_dense(x).tobytes() == matmul_dense_reference(csr, x).tobytes()

    def test_plan_built_once(self, monkeypatch):
        built = []
        plan = Csr.__dict__["plan"]
        counted = functools.cached_property(lambda csr: built.append(csr) or plan.func(csr))
        counted.__set_name__(Csr, "plan")
        monkeypatch.setattr(Csr, "plan", counted)
        csr = normalize_adjacency(random_graph(30, 0.2, np.random.default_rng(6)).adjacency)
        x = np.random.default_rng(7).standard_normal((30, 4))
        first = csr.matmul_dense(x)
        for _ in range(3):
            assert csr.matmul_dense(x).tobytes() == first.tobytes()
            # The backward multiplies by the same symmetric matrix and plan.
            _, vjp = gcn_layers([np.eye(4)], [np.zeros(4)], csr, x)
            _, g_z, _ = vjp(np.ones((30, 4)))
            assert g_z.tobytes() == csr.matmul_dense(np.ones((30, 4))).tobytes()
        assert built == [csr]


def chunked_csrs():
    """Matrices whose plan chunks end inside the run of passes."""
    # A 41-entry hub beside 40 two-entry leaves: two shared passes, then a
    # 39-entry tail.
    hub = normalize_adjacency(star(40).adjacency)
    # A 6-clique beside 6 isolated nodes: a 12-row pass, then 6-row passes
    # that pair up into 12-entry chunks.
    clique = normalize_adjacency(graph_of(12, [(i, j) for i in range(6)
                                               for j in range(i + 1, 6)]).adjacency)
    # A cycle: every pass holds exactly n entries, so each chunk ends at a
    # multiple of n.
    cycle = normalize_adjacency(graph_of(9, [(i, (i + 1) % 9) for i in range(9)]).adjacency)
    # One row repeating its columns: a 27-entry tail, cut at n, 2n and 3n.
    repeats = Csr.from_coo(8, [3] * 28 + [5, 6], list(range(8)) * 3 + [1, 2, 0, 4, 7, 7],
                           np.linspace(-2.0, 3.0, 30))
    return {"hub": hub, "clique": clique, "cycle": cycle, "repeats": repeats}


class TestCsrMatmulChunks:
    @pytest.mark.parametrize("name", list(chunked_csrs()))
    def test_chunks_tile_the_passes(self, name):
        csr = chunked_csrs()[name]
        n = csr.shape[0]
        _, live, bounds, shared, _, _, chunks = csr.plan
        # Consecutive runs of whole passes from the first to the last.
        assert [c[0] for c in chunks] == [0] + [c[1] for c in chunks[:-1]]
        assert chunks[-1][1] == len(live)
        for first, end in chunks:
            assert first < end and bounds[end] - bounds[first] <= n
            assert first >= shared or end <= shared  # shared and tail apart
        assert len(chunks) > 1

    @pytest.mark.parametrize("d", [1, 32])
    @pytest.mark.parametrize("name", list(chunked_csrs()))
    def test_byte_identical_to_add_at(self, name, d):
        csr = chunked_csrs()[name]
        x = np.random.default_rng(9).standard_normal((csr.shape[0], d))
        assert csr.matmul_dense(x).tobytes() == matmul_dense_reference(csr, x).tobytes()


class TestRuns:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 40), max_size=30), st.integers(0, 60))
    def test_runs_tile_the_items_within_the_budget(self, costs, budget):
        spans = list(graphs.runs(np.array(costs, dtype=np.int64), budget))
        # In order from the first item to the last, none empty.
        ends = [0] + [hi for _, hi in spans]
        assert [lo for lo, _ in spans] == ends[:-1] and ends[-1] == len(costs)
        for lo, hi in spans:
            assert lo < hi
            assert sum(costs[lo:hi]) <= budget or hi - lo == 1
            # As long as the budget allows: the next item would not fit.
            assert hi == len(costs) or sum(costs[lo:hi + 1]) > budget


class TestBatching:
    def test_two_triangles(self):
        g = graph_of(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        subs = [
            extract_enclosing_subgraph(g, Edge(0, 1), exclude_target_edge=False),
            extract_enclosing_subgraph(g, Edge(3, 4), exclude_target_edge=False),
        ]
        batch = make_batch(subs)
        assert batch.total_nodes == 6
        assert batch.block_sizes.tolist() == [3, 3]
        dense = batch.to_dense_adjacency()
        assert dense[:3, 3:].sum() == 0.0
        assert dense[3:, :3].sum() == 0.0

    def test_single_block_identity(self):
        g = triangle()
        sub = extract_enclosing_subgraph(g, Edge(0, 1), exclude_target_edge=False)
        batch = make_batch([sub])
        assert np.array_equal(batch.to_dense_adjacency(), sub.local_adjacency)
        assert batch.offsets.tolist() == [0]

    def test_offsets(self):
        class Stub:
            graph_features = np.zeros((10, 1))

            def __init__(self, n):
                self.num_nodes = n
                self.local_adjacency = np.zeros((n, n))
                self.labels = np.zeros(n)
                self.link_label = 1

        batch = make_batch([Stub(2), Stub(5), Stub(3)])
        assert batch.offsets.tolist() == [0, 2, 7]

    def test_empty_list_rejected(self):
        with pytest.raises(InputError):
            make_batch([])

    def test_block_under_two_nodes_rejected(self):
        g = triangle()
        pair = extract_enclosing_subgraph(g, Edge(0, 1))
        single = dataclasses.replace(pair, node_map=pair.node_map[:1],
                                     local_adjacency=np.zeros((1, 1)), labels=np.ones(1))
        with pytest.raises(InputError, match="two endpoints"):
            make_batch([pair, single])

    def test_stacked_inputs_built_once_per_batch(self):
        g = random_graph(20, 0.3, np.random.default_rng(8))
        links = [Edge(0, 1), Edge(2, 3, NEGATIVE), Edge(0, 1)]
        subs = extract_for_links(g, links, k=1, max_nodes=1000)
        batch = make_batch(subs)
        for name in ("stacked_features", "stacked_labels", "block_diag_csr",
                     "normalized_adjacency", "packed_layout", "size_groups"):
            first = getattr(batch, name)()
            assert getattr(batch, name)() is first, name
            assert getattr(make_batch(subs), name)() is not first, name
        assert np.array_equal(csr_to_dense(batch.block_diag_csr()), batch.to_dense_adjacency())
        want = normalize_adjacency(batch.block_diag_csr())
        got = batch.normalized_adjacency()
        for name in ("indptr", "indices", "data"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_stacked_features_equal_the_per_block_concatenation(self):
        # The blocks' rows used to be copied at extraction and concatenated
        # per batch; one gather from the shared matrix gives the same bytes.
        rng = np.random.default_rng(8)
        base = random_graph(30, 0.2, rng)
        g = Graph.from_edge_array(30, base.edges(), rng.standard_normal((30, 5)))
        links = [Edge(0, 1), Edge(2, 3, NEGATIVE), Edge(0, 1), Edge(4, 29)]
        subs = extract_for_links(g, links, k=2, max_nodes=7, seed=1)
        old = np.concatenate([g.features[s.node_map] for s in subs], axis=0)
        got = make_batch(subs).stacked_features()
        assert got.shape == old.shape and got.tobytes() == old.tobytes()

    def test_features_of_mixed_feature_matrices_rejected(self):
        g = random_graph(12, 0.4, np.random.default_rng(3))
        same = g.subgraph_on(g.edges()[:5])  # shares g.features
        copied = Graph.from_edge_array(12, g.edges(), g.features.copy())
        sub = extract_enclosing_subgraph(g, Edge(0, 1))
        ok = make_batch([sub, extract_enclosing_subgraph(same, Edge(2, 3))])
        assert ok.stacked_features().shape[0] == ok.total_nodes
        # Blocks of two graphs still batch for their adjacency alone.
        mixed = make_batch([sub, extract_enclosing_subgraph(copied, Edge(2, 3))])
        assert mixed.block_diag_csr().shape == (mixed.total_nodes,) * 2
        with pytest.raises(InputError, match="one feature matrix"):
            mixed.stacked_features()

    def test_extraction_copies_no_node_features(self):
        # The benchmark's graph shape: 300 nodes, node-onehot (d = 300).
        g = synth_graph(SyntheticGraphSpec("sbm", 300, "node-onehot", blocks=2,
                                           p_in=0.1, p_out=0.004))
        pairs = np.random.default_rng(0).choice(300, size=(1000, 2))
        links = [Edge(int(u), int(v)) for u, v in g.edges()[:1000]] + [
            Edge(int(u), int(v), NEGATIVE) for u, v in pairs if u != v]
        assert len(links) > 1900
        tracemalloc.start()
        try:
            subs = extract_for_links(g, links, k=1, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        feature_copy = sum(s.num_nodes for s in subs) * g.features.shape[1] * 8
        assert peak < feature_copy / 4
        assert all(s.graph_features is g.features for s in subs)

    def test_random_batches_block_isolated(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(12, 40))
            g = random_graph(n, 0.3, rng)
            edges = g.edges()
            if edges.shape[0] < 3:
                continue
            pick = rng.choice(edges.shape[0], size=3, replace=False)
            subs = [
                extract_enclosing_subgraph(g, Edge(int(u), int(v)), k=1, max_nodes=12,
                                           rng=np.random.default_rng(0))
                for u, v in edges[pick]
            ]
            dense = make_batch(subs).to_dense_adjacency()
            off = 0
            for s in subs:
                m = s.num_nodes
                block = dense[off : off + m, off : off + m]
                assert np.array_equal(block, s.local_adjacency)
                dense[off : off + m, off : off + m] = 0.0
                off += m
            assert dense.sum() == 0.0

    def test_csr_matches_dense(self):
        rng = np.random.default_rng(2)
        g = random_graph(20, 0.3, rng)
        subs = [
            extract_enclosing_subgraph(g, Edge(0, 1), exclude_target_edge=False),
            extract_enclosing_subgraph(g, Edge(2, 3), exclude_target_edge=False),
        ]
        batch = make_batch(subs)
        assert np.array_equal(csr_to_dense(batch.block_diag_csr()), batch.to_dense_adjacency())

    def test_block_diag_csr_equals_the_per_block_oracle(self):
        g = random_graph(40, 0.15, np.random.default_rng(5))
        links = [Edge(int(u), int(v)) for u, v in g.edges()[:10]] + [Edge(0, 39, NEGATIVE)]
        subs = extract_for_links(g, links, k=2, max_nodes=9, seed=2)
        isolated = graph_of(6, [(2, 3)])
        edgeless = [extract_enclosing_subgraph(isolated, Edge(0, 1)),
                    extract_enclosing_subgraph(isolated, Edge(4, 5))]
        assert not any(s.local_adjacency.any() for s in edgeless)
        for blocks in (subs, [edgeless[0], *subs[:3], edgeless[1]], subs[:1],
                       edgeless[:1], edgeless):
            got = make_batch(blocks).block_diag_csr()
            want = block_diag_csr_reference(make_batch(blocks))
            assert got.shape == want.shape
            for name in ("indptr", "indices", "data"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestIngestion:
    def test_edge_list_roundtrip(self, tmp_path):
        p = tmp_path / "edges.tsv"
        save_edge_list(p, [(0, 1), (1, 2)])
        assert load_edge_list(p).tolist() == [[0, 1], [1, 2]]

    def test_rejects_self_loop_with_line_number(self, tmp_path):
        p = tmp_path / "edges.tsv"
        p.write_text("0\t1\n2\t2\n", encoding="utf-8")
        with pytest.raises(InputError, match="line 2"):
            load_edge_list(p)

    def test_rejects_duplicate_with_line_number(self, tmp_path):
        p = tmp_path / "edges.tsv"
        p.write_text("0\t1\n1\t0\n", encoding="utf-8")
        with pytest.raises(InputError, match="line 2"):
            load_edge_list(p)

    def test_rejects_id_too_large_for_int64_with_line_number(self, tmp_path):
        p = tmp_path / "edges.tsv"
        p.write_text("0\t1\n0\t99999999999999999999\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"edges\.tsv:2: node id too large"):
            load_edge_list(p)
        p.write_text(f"0\t{2**63 - 1}\n", encoding="utf-8")
        assert load_edge_list(p).tolist() == [[0, 2**63 - 1]]

    def test_feature_csv_roundtrip(self, tmp_path):
        from counterlink.graphs import load_features_csv

        p = tmp_path / "x.csv"
        x = np.array([[1.0, 2.5], [0.0, -3.0]])
        save_features_csv(p, x)
        assert np.array_equal(load_features_csv(p), x)

    def test_load_graph_needs_a_feature_row_per_node(self, tmp_path):
        edges, feats = tmp_path / "edges.tsv", tmp_path / "x.csv"
        save_edge_list(edges, [(0, 1), (1, 2)])
        save_features_csv(feats, np.eye(3))
        assert load_graph(edges, feats).num_nodes == 3
        save_features_csv(feats, np.eye(2))
        with pytest.raises(InputError, match="feature rows"):
            load_graph(edges, feats)

    def test_non_numeric_feature_cell_names_line(self, tmp_path):
        from counterlink.graphs import load_features_csv

        p = tmp_path / "x.csv"
        p.write_text("1.0,2.0\n0.5,abc\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"x\.csv:2"):
            load_features_csv(p)

    def test_degree_onehot_caps_at_width(self):
        x = build_features("degree-onehot:3", 4, degrees=np.array([0, 1, 5, 2]))
        assert x[2, 2] == 1.0
        assert x.sum() == 4.0
