"""Graph parsing, rooted trees, and downstream-length preprocessing."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import floyd_warshall

from gsobolev import (
    Disconnected,
    DuplicateEdge,
    Graph,
    NonPositiveWeight,
    ParseError,
    gamma_masses,
    lambda_gamma,
    load_graph,
    random_measures,
    save_graph,
    shortest_path_tree,
)
from gsobolev import graph as graph_module
from gsobolev.graph import TIE_RTOL
from conftest import (
    edge_id, grid_of, path_of, random_weighted_graph, root_path_edges, traced_peak,
)


def write(tmp_path, text):
    path = tmp_path / "g.txt"
    path.write_text(text)
    return str(path)


def chain_to_root(rs, x):
    """Nodes from ``x`` up to, not including, the root, one parent at a time."""
    out = []
    while x != rs.root:
        out.append(int(x))
        x = rs.parent[x]
    return out


def star_of(leaves, seed=0):
    """Star centred on node 0, plus a few leaf-to-leaf chords."""
    rng = np.random.default_rng(seed)
    edges = [(0, i, float(rng.uniform(0.5, 2.0))) for i in range(1, leaves + 1)]
    chords = {(i, i + 1) for i in rng.choice(np.arange(1, leaves), size=leaves // 4)}
    edges += [(int(a), int(b), float(rng.uniform(0.5, 2.0))) for a, b in sorted(chords)]
    return Graph.from_edges(leaves + 1, edges)


def lambda_by_scan(g, rs):
    """Reference downstream lengths: edge shares gathered per node, then one
    children-before-parents scan over the nodes sorted by distance, depth
    and id, taken backwards."""
    eu, ev, w = g.edge_u, g.edge_v, g.edge_w
    du, dv = rs.dist[eu], rs.dist[ev]
    portion = np.zeros(g.node_count)
    np.add.at(portion, eu, np.clip((dv - du + w) / (2.0 * w), 0.0, 1.0) * w)
    np.add.at(portion, ev, np.clip((du - dv + w) / (2.0 * w), 0.0, 1.0) * w)
    sub = portion.copy()
    for x in np.lexsort((rs.depth, rs.dist))[::-1]:
        if x != rs.root:
            sub[rs.parent[x]] += sub[x]
    lam = np.zeros(g.edge_count)
    below = rs.parent_edge >= 0
    lam[rs.parent_edge[below]] = sub[below]
    return lam


class TestLoadGraph:
    def test_round_trip(self, tmp_path, figure_graph):
        path = str(tmp_path / "fig.txt")
        save_graph(figure_graph, path)
        g = load_graph(path)
        assert g.node_count == figure_graph.node_count
        np.testing.assert_array_equal(g.edge_u, figure_graph.edge_u)
        np.testing.assert_array_equal(g.edge_v, figure_graph.edge_v)
        np.testing.assert_array_equal(g.edge_w, figure_graph.edge_w)

    def test_comments_and_blanks(self, tmp_path):
        g = load_graph(write(tmp_path, "# a path\n\n3 2\n0 1 1.0\n\n# mid\n1 2 2.5\n"))
        assert g.node_count == 3
        assert g.edge_count == 2
        assert g.total_length == 3.5

    def test_header_not_two_tokens(self, tmp_path):
        with pytest.raises(ParseError):
            load_graph(write(tmp_path, "3\n"))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "g.txt: no data lines"),
            ("# only a comment\n\n", "g.txt: no data lines"),
            ("# n m\n3 x\n", "g.txt:2: header must hold two integers"),
            ("3 1.5\n", "g.txt:1: header must hold two integers"),
            ("0 0\n", "g.txt:1: need n >= 1 and m >= 0"),
            ("3 -1\n", "g.txt:1: need n >= 1 and m >= 0"),
        ],
    )
    def test_bad_header(self, tmp_path, text, message):
        path = write(tmp_path, text)
        with pytest.raises(ParseError) as err:
            load_graph(path)
        assert str(err.value) == f"{tmp_path}/{message}"

    def test_edge_count_mismatch(self, tmp_path):
        with pytest.raises(ParseError):
            load_graph(write(tmp_path, "3 2\n0 1 1.0\n"))

    def test_negative_weight(self, tmp_path):
        with pytest.raises(NonPositiveWeight):
            load_graph(write(tmp_path, "2 1\n0 1 -1\n"))

    @pytest.mark.parametrize("text, length", [("-1", "-1.0"), ("inf", "inf"), ("nan", "nan")])
    def test_bad_weight_names_the_length(self, tmp_path, text, length):
        with pytest.raises(NonPositiveWeight) as info:
            load_graph(write(tmp_path, f"2 1\n0 1 {text}\n"))
        assert str(info.value) == (
            f"edge 0 (0-1) has length {length}; lengths must be positive and finite"
        )

    def test_zero_weight(self, tmp_path):
        with pytest.raises(NonPositiveWeight):
            load_graph(write(tmp_path, "2 1\n0 1 0\n"))

    def test_node_out_of_header_range(self, tmp_path):
        with pytest.raises(ParseError):
            load_graph(write(tmp_path, "2 1\n0 2 1.0\n"))

    def test_duplicate_pair(self, tmp_path):
        with pytest.raises(DuplicateEdge):
            load_graph(write(tmp_path, "2 2\n0 1 1.0\n1 0 2.0\n"))

    def test_duplicate_names_smallest_repeated_pair(self, tmp_path):
        # (3, 4), (1, 2) and (0, 4) repeat, in either orientation
        text = "5 7\n3 4 1.0\n2 1 1.0\n4 3 1.0\n0 1 1.0\n1 2 2.0\n4 0 1.0\n0 4 3.0\n"
        with pytest.raises(DuplicateEdge) as err:
            load_graph(write(tmp_path, text))
        assert str(err.value) == "node pair (0, 4) appears more than once"

    def test_self_loop(self, tmp_path):
        with pytest.raises(DuplicateEdge) as err:
            load_graph(write(tmp_path, "3 3\n0 1 1.0\n2 2 1.0\n1 0 1.0\n"))
        # reported before the repeated pair (0, 1)
        assert str(err.value) == "edge 1 is a self-loop at node 2"

    def test_disconnected(self, tmp_path):
        for text, parts in [
            ("4 2\n0 1 1.0\n2 3 1.0\n", 2),
            ("3 1\n1 2 1.0\n", 2),  # node 0 alone
            ("6 3\n0 1 1.0\n2 3 1.0\n4 2 1.0\n", 3),  # node 5 alone
            # n - 1 edges or more: the breadth-first search finds node 3 alone
            ("4 3\n0 1 1\n1 2 1\n0 2 1\n", 2),
        ]:
            with pytest.raises(Disconnected) as err:
                load_graph(write(tmp_path, text))
            assert str(err.value) == f"graph has {parts} components, expected 1"

    def test_too_few_edges_counted_without_n_sized_arrays(self):
        # 1e13 nodes: an int64 array over them would take 80 TB
        n = 10**13
        for (u, v), parts in [(([], []), n), (([0, 5], [1, n - 1]), n - 2)]:
            with pytest.raises(Disconnected) as err:
                Graph(n, np.array(u, dtype=np.int64), np.array(v, dtype=np.int64),
                      np.ones(len(u)))
            assert str(err.value) == f"graph has {parts} components, expected 1"

    def test_pairs_past_int64_keys_do_not_collide(self, tmp_path):
        # lo * n + hi overflows int64 at n = 2^62: (4, 10) and (8, 10) once
        # wrapped onto one key and were reported as the repeat (0, 10)
        n = 1 << 62
        with pytest.raises(Disconnected) as err:
            load_graph(write(tmp_path, f"{n} 2\n4 10 1.0\n8 10 1.0\n"))
        assert str(err.value) == f"graph has {n - 2} components, expected 1"

    def test_repeat_past_int64_keys_is_refused_as_disconnected(self, tmp_path):
        # too few edges are refused before the sort looks for repeats: the
        # two touched nodes are one component, each of the rest another
        with pytest.raises(Disconnected) as err:
            load_graph(write(tmp_path, f"{1 << 62} 2\n4 10 1.0\n10 4 1.0\n"))
        assert str(err.value) == "graph has 4611686018427387903 components, expected 1"

    def test_garbage_edge_line(self, tmp_path):
        with pytest.raises(ParseError):
            load_graph(write(tmp_path, "2 1\n0 one 1.0\n"))

    @pytest.mark.parametrize(
        "text,line",
        [
            ("2 1\n0 one 1.0\n", 2),
            ("3 2\n0 1 1.0\n# note\n\n1 2\n", 5),  # wrong column count
            ("3 2\n0 1 1.0\n1 2 2.5 4\n", 3),
            ("3 2\n0 1 1.0\n1 2.0 2.5\n", 3),  # a node id must be an integer
            ("3 2\n0 1 1.0 # trailing comment\n1 2 2.5\n", 2),
            ("3 2\n0 1 1.0\n\n1 3 2.5\n", 4),  # node id outside the header range
        ],
    )
    def test_error_names_the_line(self, tmp_path, text, line):
        with pytest.raises(ParseError) as err:
            load_graph(write(tmp_path, text))
        assert f"g.txt:{line}:" in str(err.value)

    def test_header_only_graph(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = load_graph(write(tmp_path, "1 0\n"))
        assert (g.node_count, g.edge_count) == (1, 0)

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(b"# a path\r\n3 2\r\n0 1 1.0\r\n\r\n1 2 2.5\r\n")
        g = load_graph(str(path))
        assert g.edge_u.tolist() == [0, 1] and g.edge_v.tolist() == [1, 2]
        assert g.edge_w.tolist() == [1.0, 2.5]
        path.write_bytes(b"3 2\r\n0 1 1.0\r\n1 x 2.5\r\n")
        with pytest.raises(ParseError, match="g.txt:3:"):
            load_graph(str(path))


class TestGraphInvariants:
    def test_arrays_frozen(self, path_graph):
        with pytest.raises(ValueError):
            path_graph.edge_w[0] = 3.0

    def test_edge_id_lookup(self, path_graph):
        assert edge_id(path_graph, 1, 0) == 0
        assert edge_id(path_graph, 1, 2) == 1
        with pytest.raises(KeyError):
            edge_id(path_graph, 0, 2)

    @pytest.mark.parametrize(
        "g",
        [random_weighted_graph(seed, n_lo=20, n_hi=80) for seed in range(4)]
        + [
            Graph(40, np.zeros(39, np.int64), np.arange(1, 40), np.linspace(0.5, 2.0, 39)),
            Graph(40, np.arange(39), np.full(39, 39), np.linspace(0.5, 2.0, 39)),
            Graph.from_edges(2, [(1, 0, 0.75)]),
        ],
        ids=[str(seed) for seed in range(4)] + ["star-first", "star-last", "two-nodes"],
    )
    def test_adjacency_equals_coo_build(self, g):
        # the merge of the sorted upper triangle and its transpose gives
        # scipy's canonical CSR of both arc directions; on the stars one row
        # holds every arc, above or below the diagonal
        u, v, w = g.edge_u, g.edge_v, g.edge_w
        arcs = (np.concatenate([u, v]), np.concatenate([v, u]))
        ref = csr_matrix((np.concatenate([w, w]), arcs), shape=(g.node_count,) * 2)
        assert g._csr.has_canonical_format
        for name in ("indptr", "indices", "data"):
            got, want = getattr(g._csr, name), getattr(ref, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name

    def test_single_node_graph(self):
        g = Graph.from_edges(1, [])
        assert g.total_length == 0.0

    @pytest.mark.parametrize(
        "convert",
        [lambda a: a.astype(np.int8), lambda a: a.astype(np.int64), lambda a: a.astype(np.uint64),
         lambda a: a.astype(np.float64), lambda a: a.tolist(), lambda a: a.reshape(1, -1)],
        ids=["int8", "int64", "uint64", "float64", "list", "2-d"],
    )
    def test_endpoints_of_any_form_are_stored_as_int32(self, convert):
        u, v = np.array([0, 1, 2]), np.array([1, 2, 3])
        g = Graph(4, convert(u), convert(v), [1.0, 2.0, 3.0])
        assert g.edge_u.dtype == g.edge_v.dtype == np.int32
        assert g.edge_u.tolist() == u.tolist() and g.edge_v.tolist() == v.tolist()


INDEX_GRAPHS = [
    (random_weighted_graph(3, n_lo=30, n_hi=60), (0, 17)),
    (grid_of(12), (0, 66)),
    (Graph(31, np.arange(30), np.arange(1, 31), np.ones(30)), (0, 15)),
    (Graph(20, np.zeros(19, np.int64), np.arange(1, 20), np.ones(19)), (0, 7)),
]


class TestIndexDtypes:
    """Node and edge ids are int32 while the graph fits it; an int64 build
    (the dtype rule forced) holds the same values and writes the same bytes."""

    @pytest.mark.parametrize("g,roots", INDEX_GRAPHS, ids=["random", "grid", "path", "star"])
    def test_int32_arrays_equal_an_int64_build(self, monkeypatch, tmp_path, g, roots):
        def build():
            h = Graph(g.node_count, g.edge_u.astype(np.int64), g.edge_v.astype(np.int64), g.edge_w)
            save_graph(h, str(tmp_path / "g.txt"))
            out = {"saved": (tmp_path / "g.txt").read_bytes(),
                   "loaded": load_graph(str(tmp_path / "g.txt"))}
            for name in ("edge_u", "edge_v"):
                out[name] = getattr(h, name)
            for name in ("indptr", "indices", "data"):
                out[name] = getattr(h._csr, name)
            measures = random_measures(h, 5, 3, seed=1)
            for root in roots:
                rs = shortest_path_tree(h, root)
                for name in ("dist", "parent", "parent_edge", "depth", "ties"):
                    out[name, root] = getattr(rs, name)
                for k, lift in enumerate(rs.lift):
                    out["lift", k, root] = lift
                out["lambda", root] = lambda_gamma(rs).lambda_gamma
                table = gamma_masses(rs, measures)
                for name in ("indptr", "edge_ids", "values"):
                    out["gamma", name, root] = getattr(table, name)
            return out

        narrow = build()
        monkeypatch.setattr(graph_module, "_index_dtype", lambda n, m: np.int64)
        wide = build()
        assert narrow.keys() == wide.keys()
        for key, a in narrow.items():
            b = wide[key]
            if key == "loaded":
                assert a.edge_u.dtype == np.int32 and b.edge_u.dtype == np.int64
            elif key == "saved":
                assert a == b
            elif key in ("indptr", "indices"):  # scipy picks the CSR's own index dtype
                assert a.dtype == np.int32 and np.array_equal(a, b), key
            elif a.dtype.kind == "i" and key[0] not in ("ties", "gamma"):
                assert a.dtype == np.int32 and b.dtype == np.int64, key
                assert np.array_equal(a, b), key
            else:
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), key


CHUNK_GRAPHS = (
    [(random_weighted_graph(seed, n_lo=20, n_hi=300), seed) for seed in range(6)]
    + [(grid_of(60), 0), (grid_of(60), 1830), (path_of(3000), 0), (path_of(3000), 1234)]
)


class TestEdgeChunks:
    @pytest.mark.parametrize("g,root", CHUNK_GRAPHS)
    def test_edge_chunks_change_no_bit(self, monkeypatch, g, root):
        # the tree's candidate test and lambda's shares run over runs of
        # _EDGE_CHUNK edges; any run length gives the one-run arrays, byte
        # for byte
        root %= g.node_count

        def arrays():
            rs = shortest_path_tree(g, root)
            lam = lambda_gamma(rs).lambda_gamma
            return [rs.parent, rs.parent_edge, rs.depth, rs.ties, lam]

        m = g.edge_count
        monkeypatch.setattr(graph_module, "_EDGE_CHUNK", m)
        want = arrays()
        for chunk in (1, 7, m - 1):
            monkeypatch.setattr(graph_module, "_EDGE_CHUNK", chunk)
            got = arrays()
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _sparse_graph(n, m, seed, long=0):
    """``n`` nodes joined by a random spanning tree plus random chords,
    ``m`` edges with generic lengths, then ``long`` more chords far longer
    than any root path, so no tree changes for them.  The edges are one
    seeded stream cut at ``m + long``."""
    rng = np.random.default_rng(seed)
    w = np.concatenate([rng.uniform(0.5, 2.0, m), np.full(long, 1e6)])
    keys = rng.integers(0, np.arange(1, n)) * n + np.arange(1, n)
    while keys.size < m + long:
        a, b = rng.integers(0, n, (2, n))
        chords = (np.minimum(a, b) * n + np.maximum(a, b))[a != b]
        keys = np.concatenate([keys, chords])
        keys = keys[np.sort(np.unique(keys, return_index=True)[1])]  # first of each pair
    lo, hi = np.divmod(keys[: m + long], n)
    return Graph(n, lo, hi, w)


class TestScratchBounds:
    """Scratch memory of the set-up passes, under tracemalloc: the traced
    peak during a call minus what the call keeps."""

    def test_tree_and_lambda_scratch_does_not_grow_with_edges(self, monkeypatch):
        # 2^10-edge runs: doubling the edges of a graph on the same nodes,
        # with chords that leave its tree as it was, leaves the scratch of
        # the tree plus lambda where it was
        monkeypatch.setattr(graph_module, "_EDGE_CHUNK", 1 << 10)
        n = 20_000

        def scratch(g):
            _, peak, held = traced_peak(lambda: lambda_gamma(shortest_path_tree(g, 0)))
            return peak - held

        sparse, dense = _sparse_graph(n, 3 * n, seed=5), _sparse_graph(n, 3 * n, 5, long=3 * n)
        assert dense.edge_count == 2 * sparse.edge_count
        tree = shortest_path_tree(sparse, 0).parent
        assert shortest_path_tree(dense, 0).parent.tobytes() == tree.tobytes()
        growth = scratch(dense) / scratch(sparse)
        assert abs(growth - 1.0) < 0.1, growth

    def test_load_graph_peak_per_edge(self, tmp_path):
        # the parsed rows are dropped for int32 endpoints, and the adjacency
        # is merged on int32 edge ids, so the traced peak of a load (the kept
        # graph, about 40 bytes an edge, included) stays under 60 bytes an edge
        n, m = 10_000, 300_000
        save_graph(_sparse_graph(n, m, seed=7), str(tmp_path / "g.txt"))
        g, peak, _ = traced_peak(lambda: load_graph(str(tmp_path / "g.txt")))
        assert g.edge_count == m
        assert peak / m <= 60.0, peak / m

    def test_graph_build_scratch_per_edge(self):
        n, m = 10_000, 300_000
        g = _sparse_graph(n, m, seed=6)
        u, v, w = g.edge_u.copy(), g.edge_v.copy(), g.edge_w.copy()
        built, peak, held = traced_peak(lambda: Graph(n, u, v, w))
        assert built.edge_count == m
        assert (peak - held) / m <= 28.0, (peak - held) / m


class TestShortestPathTree:
    def test_path_graph(self, path_graph):
        rs = shortest_path_tree(path_graph, 0)
        np.testing.assert_allclose(rs.dist, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(rs.parent, [-1, 0, 1])
        assert rs.ties.size == 0
        np.testing.assert_array_equal(rs.parent_edge, [-1, 0, 1])

    def test_root_out_of_range(self, path_graph):
        with pytest.raises(ValueError):
            shortest_path_tree(path_graph, 3)

    def test_square_cycle_tie_kept_smallest_parent(self, square_cycle):
        rs = shortest_path_tree(square_cycle, 0)
        # node 2 is reachable at length 2 through node 1 or node 3
        assert rs.ties.tolist() == [2]
        assert rs.parent[2] == 1
        assert sorted(rs.parent_edge[rs.parent_edge >= 0]) == [0, 1, 3]

    def test_unit_grid_ties(self):
        # 3 x 3 unit grid, node r * 3 + c: every node off the first row and
        # column has two shortest root paths and keeps the parent above it
        edges = [(r * 3 + c, r * 3 + c + 1, 1.0) for r in range(3) for c in range(2)]
        edges += [(r * 3 + c, r * 3 + c + 3, 1.0) for r in range(2) for c in range(3)]
        rs = shortest_path_tree(Graph.from_edges(9, edges), 0)
        assert rs.ties.tolist() == [4, 5, 7, 8]
        assert rs.parent[rs.ties].tolist() == [1, 2, 4, 5]
        assert rs.ties.dtype == np.int64 and not rs.ties.flags.writeable

    def test_three_way_ties(self):
        # node 4 is two steps from root 0 through 3, 2 and 1; node 6 through
        # 2 and 3.  Edges come in mixed order and orientation.
        edges = [(0, 3), (2, 0), (0, 1), (4, 3), (4, 2), (1, 4), (3, 6), (6, 2), (5, 6)]
        g = Graph.from_edges(7, [(a, b, 1.0) for a, b in edges])
        rs = shortest_path_tree(g, 0)
        assert rs.ties.tolist() == [4, 6]
        assert rs.parent[rs.ties].tolist() == [1, 2]
        assert rs.parent.tolist() == [-1, 0, 0, 0, 1, 6, 2]
        assert rs.parent_edge.tolist() == [-1, 2, 1, 0, 5, 8, 7]

    @pytest.mark.parametrize("seed", range(6))
    def test_parents_match_per_child_scan(self, seed):
        # lengths 1 and 2 make many ties; the scan collects every candidate
        # in a plain loop over the edges and keeps each child's smallest
        rng = np.random.default_rng(seed)
        g = random_weighted_graph(seed, n_lo=30, n_hi=60)
        g = Graph(g.node_count, g.edge_u, g.edge_v, rng.integers(1, 3, g.edge_count) * 1.0)
        root = int(rng.integers(g.node_count))
        rs = shortest_path_tree(g, root)
        d = rs.dist
        cands = {}
        edges = zip(g.edge_u.tolist(), g.edge_v.tolist(), g.edge_w.tolist())
        for e, (a, b, w) in enumerate(edges):
            for x, y in ((a, b), (b, a)):
                if d[x] < d[y] and abs(d[x] + w - d[y]) <= TIE_RTOL * max(1.0, d[y]):
                    cands.setdefault(y, []).append((x, e))
        assert sorted(cands) == [x for x in range(g.node_count) if x != root]
        for y, found in cands.items():
            assert (rs.parent[y], rs.parent_edge[y]) == min(found)
        assert rs.parent[root] == rs.parent_edge[root] == -1
        tied = [y for y in sorted(cands) if len(cands[y]) > 1]
        assert tied and rs.ties.tolist() == tied
        assert rs.parent[rs.ties].tolist() == [min(cands[y])[0] for y in tied]

    @pytest.mark.parametrize("seed", range(6))
    def test_no_ties_on_generic_weights(self, seed):
        g = random_weighted_graph(seed)
        rs = shortest_path_tree(g, seed % g.node_count)
        assert rs.ties.size == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_distances_match_floyd_warshall(self, seed):
        g = random_weighted_graph(seed, n_lo=10, n_hi=50)
        root = seed % g.node_count
        rs = shortest_path_tree(g, root)
        dense = np.full((g.node_count, g.node_count), np.inf)
        np.fill_diagonal(dense, 0.0)
        for u, v, w in zip(g.edge_u, g.edge_v, g.edge_w):
            dense[u, v] = dense[v, u] = w
        ref = floyd_warshall(dense)
        np.testing.assert_allclose(rs.dist, ref[root], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_dist_increases_by_edge_weight_along_tree(self, seed):
        g = random_weighted_graph(seed)
        rs = shortest_path_tree(g, 0)
        for v in range(g.node_count):
            if v == 0:
                continue
            w = g.edge_w[rs.parent_edge[v]]
            assert rs.dist[v] == pytest.approx(rs.dist[rs.parent[v]] + w, rel=1e-12)
            assert rs.dist[v] > rs.dist[rs.parent[v]]

    @pytest.mark.parametrize(
        "g,root",
        [(random_weighted_graph(seed), seed) for seed in range(6)]
        + [(path_of(300), 0), (path_of(300), 150), (star_of(200), 0), (star_of(200), 7)],
    )
    def test_depth_and_lift_match_chain_walk(self, g, root):
        rs = shortest_path_tree(g, root % g.node_count)
        depth = np.array([len(chain_to_root(rs, x)) for x in range(g.node_count)])
        np.testing.assert_array_equal(rs.depth, depth)
        # lift[k][x] is 2**k steps up the chain, the root once it runs out
        assert 2 ** len(rs.lift) >= depth.max() > 2 ** (len(rs.lift) - 1)
        for k, up in enumerate(rs.lift):
            for x in range(g.node_count):
                chain = chain_to_root(rs, x) + [rs.root]
                assert up[x] == chain[min(2**k, len(chain) - 1)]


class TestRootPathEdges:
    def test_root_itself_is_empty(self, path_graph):
        rs = shortest_path_tree(path_graph, 0)
        assert root_path_edges(rs, 0) == []

    def test_path_graph_far_node(self, path_graph):
        rs = shortest_path_tree(path_graph, 0)
        assert root_path_edges(rs, 2) == [0, 1]

    def test_figure_two_edge_path(self, figure_graph):
        # the recorded path to node 4 is edge (0,1) then edge (1,4)
        rs = shortest_path_tree(figure_graph, 0)
        path = root_path_edges(rs, 4)
        assert path == [edge_id(figure_graph, 0, 1), edge_id(figure_graph, 1, 4)]


class TestLambdaGamma:
    def test_path_graph(self, path_graph):
        rs = shortest_path_tree(path_graph, 0)
        prep = lambda_gamma(rs)
        # beyond the leaf edge there is nothing; beyond the root edge, one unit
        np.testing.assert_allclose(prep.lambda_gamma, [1.0, 0.0])
        assert path_graph.total_length == 2.0

    def test_figure_pinned_value(self, figure_graph):
        rs = shortest_path_tree(figure_graph, 0)
        prep = lambda_gamma(rs)
        e5 = edge_id(figure_graph, 1, 4)
        # two unit edges hang below node 4 and nothing else reaches in
        assert prep.lambda_gamma[e5] == pytest.approx(2.0, abs=1e-12)
        kids = [v for v in range(10) if rs.parent[v] == 4]
        assert kids == [3, 9]

    def test_square_cycle_follows_recorded_tree(self, square_cycle):
        # With ties broken toward smaller ids, node 2 hangs below node 1 and
        # the far edge (2,3) is split at node 2's end (share zero), so one
        # full unit sits beyond edge (0,1).
        rs = shortest_path_tree(square_cycle, 0)
        prep = lambda_gamma(rs)
        assert prep.lambda_gamma[edge_id(square_cycle, 0, 1)] == pytest.approx(1.0)
        assert prep.lambda_gamma[edge_id(square_cycle, 0, 3)] == pytest.approx(1.0)

    def test_triangle_breakpoint_half(self, triangle):
        # the far edge's interior splits evenly between both root paths
        rs = shortest_path_tree(triangle, 0)
        prep = lambda_gamma(rs)
        assert prep.lambda_gamma[edge_id(triangle, 0, 1)] == pytest.approx(0.5)
        assert prep.lambda_gamma[edge_id(triangle, 0, 2)] == pytest.approx(0.5)
        assert prep.lambda_gamma[edge_id(triangle, 1, 2)] == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_tree_case_equals_subtree_weight(self, seed):
        # on a tree the downstream length is the plain subtree edge sum
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 40))
        parents = [int(rng.integers(0, i)) for i in range(1, n)]
        w = rng.uniform(0.1, 3.0, size=n - 1)
        g = Graph.from_edges(n, [(i + 1, parents[i], w[i]) for i in range(n - 1)])
        rs = shortest_path_tree(g, 0)
        prep = lambda_gamma(rs)

        children: dict[int, list[int]] = {}
        for i, par in enumerate(parents):
            children.setdefault(par, []).append(i + 1)

        def subtree_weight(v):
            total = 0.0
            for c in children.get(v, []):
                total += w[c - 1] + subtree_weight(c)
            return total

        for v in range(1, n):
            e = rs.parent_edge[v]
            assert prep.lambda_gamma[e] == pytest.approx(subtree_weight(v), rel=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_bounds_and_nesting(self, seed):
        g = random_weighted_graph(seed)
        rs = shortest_path_tree(g, 0)
        prep = lambda_gamma(rs)
        L = g.total_length
        for v in range(1, g.node_count):
            e = rs.parent_edge[v]
            lam = prep.lambda_gamma[e]
            assert -1e-9 <= lam <= L - g.edge_w[e] + 1e-9 * max(1.0, L)
            par = rs.parent[v]
            if par != 0:
                outer = prep.lambda_gamma[rs.parent_edge[par]]
                # everything beyond e, plus e itself, sits beyond the parent edge
                assert lam + g.edge_w[e] <= outer + 1e-9 * max(1.0, L)

    @pytest.mark.parametrize(
        "g,root",
        [(random_weighted_graph(seed, n_lo=20, n_hi=300), seed) for seed in range(10)]
        + [(star_of(2000), 0), (star_of(2000), 5), (path_of(10_000), 0), (path_of(10_000), 4321)]
        + [(grid_of(60), 0), (grid_of(60), 1830)]
        # a unit path 69,999 levels deep: past 2**16 levels
        + [(Graph(70_000, np.arange(69_999), np.arange(1, 70_000), np.ones(69_999)), 0)],
    )
    def test_matches_sequential_scan(self, g, root):
        rs = shortest_path_tree(g, root % g.node_count)
        prep = lambda_gamma(rs)
        np.testing.assert_array_equal(prep.lambda_gamma, lambda_by_scan(g, rs))

    def test_lengths_near_float_max(self):
        # (gap + w) / 2w would overflow to inf / inf = nan on the long edge;
        # the shares are formed from halves instead
        g = Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1e308)])
        prep = lambda_gamma(shortest_path_tree(g, 0))
        assert prep.lambda_gamma.tolist() == [1e308, 0.0]

    @staticmethod
    def _check_level_order(g, rs):
        # λ walks its levels in np.lexsort((dist, depth)) order, which must put
        # every parent ahead of its children; the reference scan walks by
        # distance first, so the two agree only if the level order is sound
        order = np.lexsort((rs.dist, rs.depth))
        position = np.empty_like(order)
        position[order] = np.arange(order.size)
        below = np.flatnonzero(rs.parent >= 0)
        assert np.all(position[rs.parent[below]] < position[below])
        np.testing.assert_array_equal(lambda_gamma(rs).lambda_gamma, lambda_by_scan(g, rs))

    @pytest.mark.parametrize(
        "g,root",
        [(grid_of(20), 0), (grid_of(20), 210),
         (Graph(41, np.arange(40), np.arange(1, 41), np.ones(40)), 0),
         (Graph(41, np.arange(40), np.arange(1, 41), np.ones(40)), 20),
         (Graph(30, np.zeros(29, np.int64), np.arange(1, 30), np.ones(29)), 0),
         (Graph(30, np.zeros(29, np.int64), np.arange(1, 30), np.ones(29)), 9)],
        ids=["grid-corner", "grid-middle", "path-end", "path-middle", "star-hub", "star-leaf"],
    )
    def test_level_order_is_lexsort_on_tied_distances(self, g, root):
        self._check_level_order(g, shortest_path_tree(g, root))

    def test_level_order_is_lexsort_past_uint16_depths(self):
        # a unit path 2**16 + 3 levels deep, with unit bristles on the levels
        # around 2**16 and one node reached at a tied distance from two levels
        n_path = (1 << 16) + 4
        top = np.arange(n_path - 8, n_path - 2)
        u = np.concatenate([np.arange(n_path - 1), top, [n_path - 6, n_path - 4]])
        v = np.concatenate([np.arange(1, n_path), np.arange(n_path, n_path + top.size),
                            [n_path + top.size] * 2])
        g = Graph(n_path + top.size + 1, u, v, np.ones(u.size))
        rs = shortest_path_tree(g, 0)
        assert rs.depth.max() > 1 << 16
        self._check_level_order(g, rs)

