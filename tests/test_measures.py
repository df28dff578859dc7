"""Measure validation, parsing, and cumulative edge vectors."""

from __future__ import annotations

import numpy as np
import pytest

from gsobolev import (
    DiscreteMeasure,
    GammaTable,
    Graph,
    MassNotNormalized,
    NegativeMass,
    NodeOutOfRange,
    ParseError,
    gamma_mass,
    gamma_masses,
    load_measures,
    root_path_edges,
    save_measures,
    shortest_path_tree,
)
from gsobolev import measures as measures_module
from conftest import random_weighted_graph


def walk_sums(rs, mu):
    """Reference cumulative vector: each support point in turn adds its mass
    to every edge of its recorded root path."""
    acc: dict[int, float] = {}
    for node, mass in zip(mu.nodes, mu.masses):
        for e in root_path_edges(rs, node):
            acc[e] = acc.get(e, 0.0) + mass
    ids = sorted(acc)
    return ids, [acc[e] for e in ids]


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
        b = DiscreteMeasure.normalized([(0, 1.0), (1, 3.0)])
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

    def test_normalized_constructor(self):
        mu = DiscreteMeasure.normalized([(0, 2.0), (1, 6.0)])
        assert mu.masses == (0.25, 0.75)

    def test_normalized_zero_total(self):
        with pytest.raises(MassNotNormalized):
            DiscreteMeasure.normalized([(0, 0.0)])


class TestGammaMass:
    def test_path_dirac(self, path_graph):
        rs = shortest_path_tree(path_graph, 0)
        vec = gamma_mass(rs, DiscreteMeasure.dirac(2))
        assert isinstance(vec, GammaTable) and vec.root == 0
        assert vec.indptr.tolist() == [0, 2]
        assert vec.edge_ids.tolist() == [0, 1]
        assert vec.values.tolist() == [1.0, 1.0]

    def test_path_mixture(self, path_graph):
        rs = shortest_path_tree(path_graph, 0)
        mu = DiscreteMeasure((1, 2), (0.9, 0.1))
        vec = gamma_mass(rs, mu)
        assert vec.edge_ids.tolist() == [0, 1]
        np.testing.assert_allclose(vec.values, [1.0, 0.1])

    def test_mass_at_root_invisible(self, path_graph):
        rs = shortest_path_tree(path_graph, 0)
        vec = gamma_mass(rs, DiscreteMeasure.dirac(0))
        assert vec.edge_ids.size == 0

    def test_figure_dirac_crosses_two_edges(self, figure_graph):
        rs = shortest_path_tree(figure_graph, 0)
        vec = gamma_mass(rs, DiscreteMeasure.dirac(4))
        assert vec.edge_ids.tolist() == [figure_graph.edge_id(0, 1), figure_graph.edge_id(1, 4)]
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
        assert vec.edge_ids.tolist() == sorted(touched)
        dense = np.zeros(g.edge_count)
        dense[vec.edge_ids] = vec.values
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
        out = sum(val for e, val in zip(vec.edge_ids, vec.values) if e in root_edges)
        away = sum(m for n, m in zip(mu.nodes, mu.masses) if n != 0)
        assert out == pytest.approx(away, abs=1e-12)


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
            assert row.edge_ids.tolist() == ref.edge_ids.tolist() == ids
            assert row.values.tolist() == ref.values.tolist() == vals
        # the batch neither reads nor fills the per-measure cache
        assert gamma_mass(rs, pool[1]) is early[0] and gamma_mass(rs, pool[5]) is early[1]
        assert table.row(-3).values.tobytes() == table.row(0).values.tobytes()
        assert table.row(-2).edge_ids.tobytes() == table.row(3).edge_ids.tobytes()
        assert table.row(-4).edge_ids.size == 0
        assert table.row(-1).edge_ids.size > 0 and not table.row(-1).values.any()

    def test_passes_do_not_change_bits(self, monkeypatch):
        g = random_weighted_graph(3, n_lo=60, n_hi=80)
        rng = np.random.default_rng(3)
        pool = [random_measure(rng, g.node_count, 5) for _ in range(20)]
        # a Dirac at the root (an empty row) and a repeated measure, each
        # landing on a pass boundary below
        pool[7] = DiscreteMeasure.dirac(0)
        pool[12] = pool[4]
        whole = gamma_masses(shortest_path_tree(g, 0), pool)
        # a table budget below any one measure's: one measure per pass
        monkeypatch.setattr(measures_module, "_PASS_CELLS", 3)
        rs = shortest_path_tree(g, 0)
        split = gamma_masses(rs, pool)
        for name in ("indptr", "edge_ids", "values"):
            assert getattr(whole, name).tobytes() == getattr(split, name).tobytes()
        assert_table_rows(split, rs, pool)
        assert split.row(7).edge_ids.size == 0
        # a budget of a few measures: passes of several measures each
        monkeypatch.setattr(measures_module, "_PASS_CELLS", 60)
        assert_table_rows(gamma_masses(rs, pool), rs, pool)

    def test_deep_path(self):
        # root paths thousands of edges long that overlap almost entirely
        n = 3000
        w = np.random.default_rng(1).uniform(0.5, 2.0, n - 1)
        g = Graph(n, np.arange(n - 1), np.arange(1, n), w)
        rng = np.random.default_rng(2)
        pool = [random_measure(rng, n, 6) for _ in range(8)]
        for root in (0, 1234):
            rs = shortest_path_tree(g, root)
            table = gamma_masses(rs, pool)
            for k, mu in enumerate(pool):
                ids, vals = walk_sums(rs, mu)
                assert table.row(k).edge_ids.tolist() == ids
                assert table.row(k).values.tolist() == vals

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

    def test_unnormalized_rejected_then_rescaled(self, tmp_path, path_graph):
        path = tmp_path / "m.txt"
        path.write_text("a 0 2.0 1 2.0\n")
        with pytest.raises(MassNotNormalized):
            load_measures(str(path), path_graph)
        out = load_measures(str(path), path_graph, normalize=True)
        assert out[0].masses == (0.5, 0.5)

    def test_garbage_mass(self, tmp_path, path_graph):
        path = tmp_path / "m.txt"
        path.write_text("a 0 lots\n")
        with pytest.raises(ParseError):
            load_measures(str(path), path_graph)
