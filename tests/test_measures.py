"""Measure validation, parsing, and cumulative edge vectors."""

from __future__ import annotations

import math

import numpy as np
import pytest

from gsobolev import (
    VARIANT_SOBOLEV_IPM,
    VARIANT_SOBOLEV_TRANSPORT,
    DiscreteMeasure,
    EdgePrep,
    GammaTable,
    Graph,
    MassNotNormalized,
    NegativeMass,
    NodeOutOfRange,
    ParseError,
    SizeLimitExceeded,
    beta_weights,
    gamma_mass,
    gamma_masses,
    load_measures,
    pair_distances,
    prepare_root,
    save_measures,
    shortest_path_tree,
)
from gsobolev import measures as measures_module
from conftest import (
    by_edge, edge_id, grid_of, lambda_by_scan, path_of, random_weighted_graph, root_path_edges,
    traced_peak,
)


def walk_sums(rs, mu):
    """Reference cumulative vector: each support point in turn adds its mass
    to every edge of its recorded root path."""
    acc: dict[int, float] = {}
    for node, mass in zip(mu.nodes, mu.masses):
        for e in root_path_edges(rs, node):
            acc[e] = acc.get(e, 0.0) + mass
    ids = sorted(acc)
    return ids, [acc[e] for e in ids]


def caterpillar_of(spine, legs):
    """A unit-length spine of ``spine`` nodes, each with ``legs`` leaves."""
    leaves = spine + np.arange(spine * legs)
    u = np.concatenate([np.arange(spine - 1), np.repeat(np.arange(spine), legs)])
    v = np.concatenate([np.arange(1, spine), leaves])
    return Graph(spine * (legs + 1), u, v, np.ones(u.size))


def broom_of(handle, bristles):
    """A unit-length path of ``handle`` nodes whose last node has ``bristles``
    leaves."""
    u = np.concatenate([np.arange(handle - 1), np.full(bristles, handle - 1)])
    v = np.arange(1, handle + bristles)
    return Graph(handle + bristles, u, v, np.ones(u.size))


def star_of(leaves):
    """Node 0 joined to each of ``leaves`` leaves, at generic lengths."""
    w = np.random.default_rng(leaves).uniform(0.5, 2.0, leaves)
    return Graph(leaves + 1, np.zeros(leaves, np.int64), np.arange(1, leaves + 1), w)


def random_measure(rng, n, size):
    nodes = rng.choice(n, size=size, replace=False)
    masses = rng.dirichlet(np.ones(size))
    return DiscreteMeasure(tuple(int(x) for x in nodes), tuple(masses / masses.sum()))


class TestDiscreteMeasure:
    def test_dirac(self):
        mu = DiscreteMeasure.dirac(3)
        assert mu.nodes == (3,)
        assert mu.masses == (1.0,)
        assert mu.support_size == 1

    def test_hashable(self):
        a = DiscreteMeasure((0, 1), (0.5, 0.5))
        b = DiscreteMeasure((0, 1), (0.5, 0.5))
        assert a == b
        assert hash(a) == hash(b)

    def test_hash_cached_and_field_based(self):
        a = DiscreteMeasure((np.int64(0), 1), (np.float64(0.25), 0.75))
        b = DiscreteMeasure([0, 1], [1.0 / 4.0, 3.0 / 4.0])
        assert a == b and hash(a) == hash(b) == hash(((0, 1), (0.25, 0.75)))
        assert a != DiscreteMeasure((1, 0), (0.75, 0.25))  # same mass, other order
        assert repr(a) == "DiscreteMeasure(nodes=(0, 1), masses=(0.25, 0.75))"
        assert len({a: 1, b: 2}) == 1

    def test_duplicate_node(self):
        with pytest.raises(ValueError):
            DiscreteMeasure((1, 1), (0.5, 0.5))

    def test_negative_mass(self):
        with pytest.raises(NegativeMass):
            DiscreteMeasure((0, 1), (1.5, -0.5))

    def test_nan_mass(self):
        with pytest.raises(NegativeMass):
            DiscreteMeasure((0,), (float("nan"),))

    def test_not_normalized(self):
        with pytest.raises(MassNotNormalized):
            DiscreteMeasure((0, 1), (0.5, 0.6))

    def test_within_tolerance(self):
        DiscreteMeasure((0, 1), (0.5, 0.5 + 5e-10))

    def test_negative_node(self):
        with pytest.raises(NodeOutOfRange):
            DiscreteMeasure((-1,), (1.0,))

    def test_empty(self):
        with pytest.raises(ValueError):
            DiscreteMeasure((), ())

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            DiscreteMeasure((0, 1), (1.0,))


class TestGammaMass:
    def test_path_dirac(self, path_graph):
        rs = shortest_path_tree(path_graph, 0)
        vec = gamma_mass(rs, DiscreteMeasure.dirac(2))
        assert isinstance(vec, GammaTable) and vec.root == 0
        assert vec.indptr.tolist() == [0, 2]
        assert rs.tree_edges[vec.edge_ids].tolist() == [0, 1]
        assert vec.values.tolist() == [1.0, 1.0]

    def test_path_mixture(self, path_graph):
        rs = shortest_path_tree(path_graph, 0)
        mu = DiscreteMeasure((1, 2), (0.9, 0.1))
        vec = gamma_mass(rs, mu)
        assert rs.tree_edges[vec.edge_ids].tolist() == [0, 1]
        np.testing.assert_allclose(vec.values, [1.0, 0.1])

    def test_mass_at_root_invisible(self, path_graph):
        rs = shortest_path_tree(path_graph, 0)
        vec = gamma_mass(rs, DiscreteMeasure.dirac(0))
        assert vec.edge_ids.size == 0

    def test_figure_dirac_crosses_two_edges(self, figure_graph):
        rs = shortest_path_tree(figure_graph, 0)
        vec = gamma_mass(rs, DiscreteMeasure.dirac(4))
        want = [edge_id(figure_graph, 0, 1), edge_id(figure_graph, 1, 4)]
        assert rs.tree_edges[vec.edge_ids].tolist() == want
        assert vec.values.tolist() == [1.0, 1.0]

    def test_cache_returns_same_object(self, path_graph):
        rs = shortest_path_tree(path_graph, 0)
        mu = DiscreteMeasure((1, 2), (0.5, 0.5))
        assert gamma_mass(rs, mu) is gamma_mass(rs, mu)
        # equal measures hit the same cache slot
        assert gamma_mass(rs, DiscreteMeasure((1, 2), (0.5, 0.5))) is gamma_mass(rs, mu)

    def test_support_outside_graph(self, path_graph):
        rs = shortest_path_tree(path_graph, 0)
        with pytest.raises(NodeOutOfRange):
            gamma_mass(rs, DiscreteMeasure.dirac(7))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_node_walk(self, seed):
        g = random_weighted_graph(seed)
        rng = np.random.default_rng(seed + 100)
        root = int(rng.integers(g.node_count))
        rs = shortest_path_tree(g, root)
        size = int(rng.integers(1, min(6, g.node_count) + 1))
        nodes = rng.choice(g.node_count, size=size, replace=False)
        masses = rng.dirichlet(np.ones(size))
        mu = DiscreteMeasure(tuple(int(x) for x in nodes), tuple(masses / masses.sum()))

        expect = np.zeros(g.edge_count)
        touched = set()
        for node, mass in zip(mu.nodes, mu.masses):
            for e in root_path_edges(rs, node):
                expect[e] += mass
                touched.add(e)
        vec = gamma_mass(rs, mu)
        assert rs.tree_edges[vec.edge_ids].tolist() == sorted(touched)
        dense = np.zeros(g.edge_count)
        dense[rs.tree_edges[vec.edge_ids]] = vec.values
        np.testing.assert_array_equal(dense, expect)

    @pytest.mark.parametrize("seed", range(4))
    def test_total_outflow_is_offroot_mass(self, seed):
        # mass leaving the root over its incident tree edges equals the
        # mass supported away from the root
        g = random_weighted_graph(seed)
        rs = shortest_path_tree(g, 0)
        rng = np.random.default_rng(seed)
        nodes = rng.choice(g.node_count, size=min(5, g.node_count), replace=False)
        masses = rng.dirichlet(np.ones(nodes.size))
        mu = DiscreteMeasure(tuple(int(x) for x in nodes), tuple(masses / masses.sum()))
        vec = gamma_mass(rs, mu)
        root_edges = {int(rs.parent_edge[v]) for v in range(g.node_count) if rs.parent[v] == 0}
        edges = rs.tree_edges[vec.edge_ids]
        out = sum(val for e, val in zip(edges, vec.values) if e in root_edges)
        away = sum(m for n, m in zip(mu.nodes, mu.masses) if n != 0)
        assert out == pytest.approx(away, abs=1e-12)


# The shape sweep: graphs and roots whose root paths are thousands of edges
# long and shared (path, broom handle), short and shared (star, caterpillar
# legs) or one of many shortest paths (grid).
SHAPES = [
    (path_of(3000, seed=1), (0, 1234)), (caterpillar_of(300, 2), (0, 450)),
    (broom_of(400, 300), (0, 650)), (star_of(500), (0, 3)), (grid_of(60, 1.0), (0, 1830)),
]
SHAPE_IDS = ["path", "caterpillar", "broom", "star", "grid"]


def edge_id_distances(rows, first, second, weights, p):
    """Naive pair distances over graph edge ids: ``rows`` maps each
    measure's edge ids to its Γ values, and ``weights`` is edge-sized (at
    ``p = inf``, ``1 / (1 + λ)``).  A dict union of the two rows, edges
    sorted, terms summed (or maxed) one by one; powers taken as numpy
    arrays, as the library takes them."""
    sums = []
    for a, b in zip(first, second):
        u, v = rows[a], rows[b]
        edges = sorted(u.keys() | v.keys())
        diff = np.abs(np.array([u.get(e, 0.0) - v.get(e, 0.0) for e in edges]))
        terms = diff if p in (1.0, math.inf) else diff**p
        acc = 0.0
        for e, term in zip(edges, terms.tolist()):
            acc = max(acc, term * weights[e]) if math.isinf(p) else acc + term * weights[e]
        sums.append(acc)
    sums = np.array(sums)
    return sums if p in (1.0, math.inf) else sums ** (1.0 / p)


def assert_table_rows(table, rs, pool):
    """The CSR invariants of a table, and row ``k`` equal to
    ``gamma_mass(rs, pool[k])`` bit for bit."""
    indptr = table.indptr
    assert table.root == rs.root and len(table) == len(pool)
    assert indptr[0] == 0 and (np.diff(indptr) >= 0).all()
    assert indptr[-1] == table.edge_ids.size == table.values.size
    for k, mu in enumerate(pool):
        row, ref = table.row(k), gamma_mass(rs, mu)
        assert (np.diff(row.edge_ids) > 0).all()
        assert row.edge_ids.tobytes() == ref.edge_ids.tobytes()
        assert row.values.tobytes() == ref.values.tobytes()


class TestGammaMasses:
    @pytest.mark.parametrize("seed", range(8))
    def test_batch_matches_one_at_a_time(self, seed):
        g = random_weighted_graph(seed, n_lo=20, n_hi=120)
        rng = np.random.default_rng(seed)
        root = int(rng.integers(g.node_count))
        pool = [random_measure(rng, g.node_count, int(rng.integers(1, 8))) for _ in range(12)]
        pool.append(DiscreteMeasure.dirac(root))  # nothing crosses an edge
        pool.append(DiscreteMeasure(pool[0].nodes, pool[0].masses))  # equal, distinct object
        pool.append(pool[3])  # the same object twice
        # all mass at the root, a zero-mass point elsewhere: its path holds 0.0
        pool.append(DiscreteMeasure((root, (root + 1) % g.node_count), (1.0, 0.0)))

        single = shortest_path_tree(g, root)
        expect = [gamma_mass(single, mu) for mu in pool]
        rs = shortest_path_tree(g, root)
        early = [gamma_mass(rs, pool[k]) for k in (1, 5)]  # cached before the batch
        table = gamma_masses(rs, pool)
        assert_table_rows(table, rs, pool)
        for k, (ref, mu) in enumerate(zip(expect, pool)):
            row = table.row(k)
            ids, vals = walk_sums(rs, mu)
            assert row.edge_ids.tolist() == ref.edge_ids.tolist()
            assert rs.tree_edges[row.edge_ids].tolist() == ids
            assert row.values.tolist() == ref.values.tolist() == vals
        # the batch neither reads nor fills the per-measure cache
        assert gamma_mass(rs, pool[1]) is early[0] and gamma_mass(rs, pool[5]) is early[1]
        assert table.row(-3).values.tobytes() == table.row(0).values.tobytes()
        assert table.row(-2).edge_ids.tobytes() == table.row(3).edge_ids.tobytes()
        assert table.row(-4).edge_ids.size == 0
        assert table.row(-1).edge_ids.size > 0 and not table.row(-1).values.any()

    @pytest.mark.parametrize(
        "g, root",
        [(random_weighted_graph(3, n_lo=60, n_hi=80), 0),
         (random_weighted_graph(4, n_lo=60, n_hi=80), 17),
         (path_of(3000), 0), (path_of(3000), 1234), (grid_of(60, 1.0), 0), (grid_of(60, 1.0), 1830)],
        ids=["random-3", "random-4", "path-0", "path-1234", "grid-0", "grid-1830"],
    )
    def test_passes_do_not_change_bits(self, monkeypatch, g, root):
        rng = np.random.default_rng(3)
        pool = [random_measure(rng, g.node_count, 5) for _ in range(20)]
        # a Dirac at the root (an empty row) and a repeated measure, each
        # landing on a pass boundary below
        pool[7] = DiscreteMeasure.dirac(root)
        pool[12] = pool[4]
        rs = shortest_path_tree(g, root)
        whole_entries = int(sum(rs.depth[list(mu.nodes)].sum() for mu in pool))
        # a budget of the whole table's entries: one pass
        monkeypatch.setattr(measures_module, "_PASS_ENTRIES", whole_entries)
        whole = gamma_masses(rs, pool)
        assert_table_rows(whole, rs, pool)
        assert whole.row(7).edge_ids.size == 0
        # budgets below any one measure's entries (one measure a pass), and
        # of about seven measures' entries (several measures a pass)
        for entries in (1, 7, whole_entries * 7 // len(pool)):
            monkeypatch.setattr(measures_module, "_PASS_ENTRIES", entries)
            split = gamma_masses(rs, pool)
            for name in ("indptr", "edge_ids", "values"):
                a, b = getattr(whole, name), getattr(split, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("entries", [1, measures_module._PASS_ENTRIES], ids=["one", "default"])
    @pytest.mark.parametrize("g, roots", SHAPES, ids=SHAPE_IDS)
    def test_shapes_match_the_walk(self, monkeypatch, g, roots, entries):
        # each point's root path is a run of its own length, whether it is
        # thousands of edges long and shared (path, broom handle), short and
        # shared (star, caterpillar legs) or one of many shortest paths (grid)
        monkeypatch.setattr(measures_module, "_PASS_ENTRIES", entries)
        rng = np.random.default_rng(g.node_count)
        pool = [random_measure(rng, g.node_count, int(rng.integers(1, 9))) for _ in range(12)]
        for root in roots:
            pool.append(DiscreteMeasure.dirac(root))
            rs = shortest_path_tree(g, root)
            table = gamma_masses(rs, pool)
            assert table.indptr.dtype == table.edge_ids.dtype == np.int64
            for k, mu in enumerate(pool):
                ids, vals = walk_sums(rs, mu)
                assert rs.tree_edges[table.row(k).edge_ids].tolist() == ids
                assert table.row(k).values.tobytes() == np.array(vals, np.float64).tobytes()

    @pytest.mark.parametrize("g, roots", SHAPES, ids=SHAPE_IDS)
    def test_rank_columns_keep_the_bits_of_edge_ids(self, g, roots):
        # with chords far longer than any root path added (the tree stays as
        # it was) and the edge ids shuffled, no shape's tree edges are a
        # prefix of its edge list; mapped back to edge ids (Γ through
        # tree_edges, λ by scatter), Γ, λ and the distances equal the
        # per-node walk, the sequential λ scan and a per-edge sum over edge
        # ids, bit for bit
        n, m = g.node_count, g.edge_count
        rng = np.random.default_rng(m)
        a, b = rng.integers(0, n, (2, n // 4))
        keys = np.unique(np.minimum(a, b) * n + np.maximum(a, b))
        keys = np.setdiff1d(keys[keys % (n + 1) != 0], np.minimum(g.edge_u, g.edge_v) * n
                            + np.maximum(g.edge_u, g.edge_v))  # no loop, no repeated pair
        u, v = np.concatenate([g.edge_u, keys // n]), np.concatenate([g.edge_v, keys % n])
        w = np.concatenate([g.edge_w, np.full(keys.size, 1e6)])
        perm = rng.permutation(u.size)
        g = Graph(n, u[perm], v[perm], w[perm])
        pool = [random_measure(rng, g.node_count, int(rng.integers(1, 9))) for _ in range(6)]
        first, second = np.triu_indices(len(pool), 1)
        for root in roots:
            rs, prep = prepare_root(g, root)
            edges = rs.tree_edges
            assert edges.size == g.node_count - 1 and (np.diff(edges) > 0).all()
            assert edges[-1] >= edges.size  # not a prefix of the edge list
            below = rs.rank >= 0
            assert edges[rs.rank[below]].tobytes() == rs.parent_edge[below].tobytes()
            lam = lambda_by_scan(g, rs)
            assert by_edge(rs, prep.lambda_gamma).tobytes() == lam.tobytes()
            assert prep.edge_lengths.tobytes() == g.edge_w[edges].tobytes()
            table, rows = gamma_masses(rs, pool), []
            for k, mu in enumerate(pool):
                ids, vals = walk_sums(rs, mu)
                assert edges[table.row(k).edge_ids].tolist() == ids
                assert table.row(k).values.tolist() == vals
                rows.append(dict(zip(ids, vals)))
            by_id = EdgePrep(root, lambda_gamma=lam, edge_lengths=g.edge_w)
            for p, variant in [(p, VARIANT_SOBOLEV_IPM) for p in (1.0, 1.5, 2.0, 3.0, math.inf)] \
                    + [(p, VARIANT_SOBOLEV_TRANSPORT) for p in (1.0, 1.5, 2.0, 3.0)]:
                if variant == VARIANT_SOBOLEV_TRANSPORT:
                    weights = g.edge_w
                elif math.isinf(p):
                    weights = 1.0 / (1.0 + lam)
                else:
                    weights = beta_weights(by_id, p)
                want = edge_id_distances(rows, first, second, weights, p)
                got = pair_distances(prep, table, first, second, p, variant)
                assert got.tobytes() == want.tobytes(), (root, p, variant)

    def test_build_peak_per_entry(self):
        # a deep table of 3.4M entries: its build holds the passes' edge ids
        # and values plus one joined array, 24 bytes an entry, and one pass's
        # scratch
        n = 20_000
        g = Graph(n, np.arange(n - 1), np.arange(1, n), np.ones(n - 1))
        rng = np.random.default_rng(0)
        pool = [random_measure(rng, n, 5) for _ in range(200)]
        rs = shortest_path_tree(g, 0)
        table, peak, _ = traced_peak(lambda: gamma_masses(rs, pool))
        assert table.edge_ids.size > 3_000_000
        assert peak / table.edge_ids.size <= 26.0, peak / table.edge_ids.size

    def test_entry_budget_refused_before_the_build(self, monkeypatch):
        g = random_weighted_graph(5, n_lo=40, n_hi=60)
        rng = np.random.default_rng(5)
        pool = [random_measure(rng, g.node_count, 4) for _ in range(10)]
        rs = shortest_path_tree(g, 0)
        predicted = int(sum(rs.depth[list(mu.nodes)].sum() for mu in pool))
        monkeypatch.setattr(measures_module, "_GAMMA_ENTRY_BUDGET", predicted)
        table = gamma_masses(rs, pool)
        assert table.edge_ids.size <= predicted
        monkeypatch.setattr(measures_module, "_GAMMA_ENTRY_BUDGET", predicted - 1)
        monkeypatch.setattr(measures_module, "_PASS_ENTRIES", None)  # never reached
        with pytest.raises(SizeLimitExceeded, match=f"up to {predicted:,} entries "
                           f"\\({24 * predicted:,} bytes to build\\), above the budget"):
            gamma_masses(rs, pool)

    def test_empty_batch(self, path_graph):
        table = gamma_masses(shortest_path_tree(path_graph, 0), [])
        assert len(table) == 0 and table.indptr.tolist() == [0]
        assert table.edge_ids.size == table.values.size == 0

    def test_rows_are_read_only_views(self, path_graph):
        table = gamma_masses(shortest_path_tree(path_graph, 0), [DiscreteMeasure.dirac(2)] * 2)
        row = table.row(1)
        assert isinstance(row, GammaTable) and len(row) == 1 and row.root == 0
        assert row.indptr.tolist() == [0, 2]
        assert np.shares_memory(row.values, table.values)
        for arr in (table.indptr, table.edge_ids, table.values, row.edge_ids, row.values):
            with pytest.raises(ValueError):
                arr[:1] = 0
        with pytest.raises(IndexError):
            table.row(2)

    @pytest.mark.parametrize(
        "indptr, edge_ids",
        [
            ([], []),  # no row pointer at all
            ([1, 2], [0, 1]),  # does not start at 0
            ([0, 3], [0, 1]),  # ends past the entries
            ([0, 1], [0, 1]),  # ends before them
            ([0, 2, 1, 2], [0, 1]),  # falls
            ([0, 9, 2], [0, 1]),  # passes the end, then falls back
            ([0, 2], [1, 0]),  # edges fall within a row
            ([0, 3], [0, 2, 2]),  # an edge repeats within a row
        ],
    )
    def test_malformed_layout_rejected(self, indptr, edge_ids):
        indptr, edge_ids = np.array(indptr, dtype=np.int64), np.array(edge_ids, dtype=np.int64)
        with pytest.raises(ValueError):
            GammaTable(0, indptr, edge_ids, np.ones(edge_ids.size))

    @pytest.mark.parametrize("count", [1, 3])
    def test_values_must_pair_with_edge_ids(self, count):
        with pytest.raises(ValueError):
            GammaTable(0, np.array([0, 2]), np.array([1, 4]), np.ones(count))

    def test_rows_may_restart_and_be_empty(self):
        table = GammaTable(0, np.array([0, 2, 2, 3]), np.array([3, 5, 1]), np.ones(3))
        assert [table.row(k).edge_ids.tolist() for k in range(3)] == [[3, 5], [], [1]]
        assert [table.row(k).indptr.tolist() for k in range(3)] == [[0, 2], [0, 0], [0, 1]]

    def test_support_outside_graph(self, path_graph):
        rs = shortest_path_tree(path_graph, 0)
        with pytest.raises(NodeOutOfRange):
            gamma_masses(rs, [DiscreteMeasure.dirac(1), DiscreteMeasure.dirac(7)])


class TestMeasureFiles:
    def test_round_trip(self, tmp_path, path_graph):
        mus = [
            DiscreteMeasure.dirac(2),
            DiscreteMeasure((0, 1, 2), (0.25, 0.25, 0.5)),
        ]
        path = str(tmp_path / "m.txt")
        save_measures(mus, path)
        back = load_measures(path, path_graph)
        assert back == mus

    def test_comments_and_spaces(self, tmp_path, path_graph):
        path = tmp_path / "m.txt"
        path.write_text("# measures\n\na 0 0.5 1 0.5\nb 2 1.0\n")
        out = load_measures(str(path), path_graph)
        assert len(out) == 2
        assert out[1] == DiscreteMeasure.dirac(2)

    def test_even_token_count(self, tmp_path, path_graph):
        path = tmp_path / "m.txt"
        path.write_text("a 0 0.5 1\n")
        with pytest.raises(ParseError):
            load_measures(str(path), path_graph)

    def test_bare_label(self, tmp_path, path_graph):
        path = tmp_path / "m.txt"
        path.write_text("a\n")
        with pytest.raises(ParseError):
            load_measures(str(path), path_graph)

    def test_repeated_node(self, tmp_path, path_graph):
        path = tmp_path / "m.txt"
        path.write_text("a 1 0.5 1 0.5\n")
        with pytest.raises(ParseError):
            load_measures(str(path), path_graph)

    def test_node_outside_graph(self, tmp_path, path_graph):
        path = tmp_path / "m.txt"
        path.write_text("a 9 1.0\n")
        with pytest.raises(NodeOutOfRange) as err:
            load_measures(str(path), path_graph)
        assert ":1:" in str(err.value)

    def test_negative_mass(self, tmp_path, path_graph):
        path = tmp_path / "m.txt"
        path.write_text("a 0 1.5 1 -0.5\n")
        with pytest.raises(NegativeMass):
            load_measures(str(path), path_graph)

    def test_unnormalized_rejected(self, tmp_path, path_graph):
        path = tmp_path / "m.txt"
        path.write_text("a 0 2.0 1 2.0\n")
        with pytest.raises(MassNotNormalized):
            load_measures(str(path), path_graph)

    def test_garbage_mass(self, tmp_path, path_graph):
        path = tmp_path / "m.txt"
        path.write_text("a 0 lots\n")
        with pytest.raises(ParseError):
            load_measures(str(path), path_graph)
