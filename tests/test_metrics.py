"""Closed-form distances: pinned values, invariants, and error paths."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

from gsobolev import (
    DiscreteMeasure,
    EdgePrep,
    Graph,
    InvalidExponent,
    NonPositiveWeight,
    RootMismatch,
    VARIANT_SOBOLEV_IPM,
    VARIANT_SOBOLEV_TRANSPORT,
    beta_quadrature,
    beta_weights,
    gamma_mass,
    gamma_masses,
    measure_distance,
    pair_distances,
    prepare_root,
    random_measures,
    sample_roots,
    sliced_distance,
    sliced_pair_distances,
    sobolev_ipm_distance,
    sobolev_transport_distance,
)
from gsobolev import metrics
from gsobolev.metrics import _edge_weights, _reduce_pairs
from conftest import random_weighted_graph, traced_peak


def one_edge_prep(lam: float, w: float) -> EdgePrep:
    return EdgePrep(root=0, lambda_gamma=np.array([lam]), edge_lengths=np.array([w]))


class TestBetaWeights:
    def test_order_one_is_length_exactly(self):
        prep = one_edge_prep(3.7, 0.83)
        assert float(beta_weights(prep, 1.0)[0]) == 0.83

    def test_order_two_unit_edge(self):
        # integral_0^1 (1 + t)^-1 dt = log 2
        prep = one_edge_prep(0.0, 1.0)
        assert float(beta_weights(prep, 2.0)[0]) == pytest.approx(
            0.6931471805599453, rel=1e-15
        )

    def test_order_three_halves_unit_edge(self):
        # ((1 + 1)^0.5 - 1^0.5) / 0.5 = 2 (sqrt 2 - 1)
        prep = one_edge_prep(0.0, 1.0)
        assert float(beta_weights(prep, 1.5)[0]) == pytest.approx(
            0.8284271247461903, rel=1e-15
        )

    def test_accurate_near_two(self):
        exact = np.log1p(1.0 / 3.0)
        assert float(beta_weights(one_edge_prep(2.0, 1.0), 2.0)[0]) == exact
        for eps in (1e-10, 1.5e-9, 1e-7):
            for p in (2.0 + eps, 2.0 - eps):
                got = float(beta_weights(one_edge_prep(2.0, 1.0), p)[0])
                ref = beta_quadrature(2.0, 1.0, p)
                assert abs(got - ref) <= 1e-12 * ref, p

    def test_decreasing_in_downstream_length(self):
        vals = [float(beta_weights(one_edge_prep(lam, 1.0), 2.0)[0]) for lam in (0.0, 1.0, 5.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_cache_hit_returns_same_array(self):
        prep = one_edge_prep(1.0, 1.0)
        assert beta_weights(prep, 1.5) is beta_weights(prep, 1.5)

    def test_rejects_bad_order(self):
        prep = one_edge_prep(0.0, 1.0)
        with pytest.raises(InvalidExponent):
            beta_weights(prep, 0.5)
        with pytest.raises(InvalidExponent):
            beta_weights(prep, math.inf)
        with pytest.raises(InvalidExponent):
            beta_weights(prep, math.nan)


class TestPinnedPathValues:
    """Unit path 0 - 1 - 2, root 0, measures at nodes 1 and 2."""

    @pytest.fixture()
    def setup(self, path_graph):
        rs, prep = prepare_root(path_graph, 0)
        u = gamma_mass(rs, DiscreteMeasure.dirac(1))
        v = gamma_mass(rs, DiscreteMeasure.dirac(2))
        return prep, u, v

    def test_order_one(self, setup):
        prep, u, v = setup
        assert sobolev_ipm_distance(prep, u, v, 1.0) == 1.0

    def test_order_two(self, setup):
        # sqrt(log 2): the difference lives on the leaf edge alone
        prep, u, v = setup
        assert sobolev_ipm_distance(prep, u, v, 2.0) == pytest.approx(
            0.8325546111576977, rel=1e-15
        )

    def test_order_three_halves(self, setup):
        prep, u, v = setup
        expect = (2.0 * (math.sqrt(2.0) - 1.0)) ** (1.0 / 1.5)
        assert sobolev_ipm_distance(prep, u, v, 1.5) == pytest.approx(expect, rel=1e-14)

    def test_order_infinity(self, setup):
        prep, u, v = setup
        assert sobolev_ipm_distance(prep, u, v, math.inf) == 1.0

    def test_transport_baseline(self, setup):
        prep, u, v = setup
        assert sobolev_transport_distance(prep, u, v, 2.0) == 1.0
        assert sobolev_transport_distance(prep, u, v, 1.0) == 1.0

    def test_identical_measures_zero(self, setup):
        prep, u, _ = setup
        assert sobolev_ipm_distance(prep, u, u, 2.0) == 0.0
        assert sobolev_ipm_distance(prep, u, u, math.inf) == 0.0

    def test_both_at_root(self, path_graph):
        rs, prep = prepare_root(path_graph, 0)
        z = gamma_mass(rs, DiscreteMeasure.dirac(0))
        assert sobolev_ipm_distance(prep, z, z, 2.0) == 0.0


class TestPinnedTriangleValue:
    def test_order_two_between_leaves(self, triangle):
        # both root edges carry downstream length 1/2, so each weight is
        # log(1 + 1 / 1.5) and the two unit differences add
        rs, prep = prepare_root(triangle, 0)
        u = gamma_mass(rs, DiscreteMeasure.dirac(1))
        v = gamma_mass(rs, DiscreteMeasure.dirac(2))
        got = sobolev_ipm_distance(prep, u, v, 2.0)
        assert got == pytest.approx(math.sqrt(2.0 * math.log(5.0 / 3.0)), rel=1e-14)


class TestInfinityScaling:
    """Weight rescaling moves the max-form value only through downstream
    lengths, so a leaf-edge difference is scale-invariant while a difference
    on an inner edge is not."""

    def scaled_path(self, scale):
        from gsobolev import Graph

        return Graph.from_edges(3, [(0, 1, scale), (1, 2, scale)])

    @pytest.mark.parametrize("scale", [1.0, 2.0])
    def test_leaf_difference_invariant(self, scale):
        g = self.scaled_path(scale)
        rs, prep = prepare_root(g, 0)
        u = gamma_mass(rs, DiscreteMeasure.dirac(1))
        v = gamma_mass(rs, DiscreteMeasure.dirac(2))
        assert sobolev_ipm_distance(prep, u, v, math.inf) == 1.0

    def test_inner_difference_shrinks(self):
        mu = DiscreteMeasure((1, 2), (0.9, 0.1))
        nu = DiscreteMeasure.dirac(0)
        vals = {}
        for scale in (1.0, 2.0):
            g = self.scaled_path(scale)
            rs, prep = prepare_root(g, 0)
            vals[scale] = sobolev_ipm_distance(
                prep, gamma_mass(rs, mu), gamma_mass(rs, nu), math.inf
            )
        assert vals[1.0] == pytest.approx(0.5, rel=1e-15)
        assert vals[2.0] == pytest.approx(1.0 / 3.0, rel=1e-15)


class TestOrderAndVariantValidation:
    def test_root_mismatch(self, path_graph):
        _, prep0 = prepare_root(path_graph, 0)
        rs2, _ = prepare_root(path_graph, 2)
        vec2 = gamma_mass(rs2, DiscreteMeasure.dirac(1))
        with pytest.raises(RootMismatch):
            sobolev_ipm_distance(prep0, vec2, vec2, 2.0)

    def test_mixed_root_vectors(self, path_graph):
        rs0, prep0 = prepare_root(path_graph, 0)
        rs2, _ = prepare_root(path_graph, 2)
        u = gamma_mass(rs0, DiscreteMeasure.dirac(1))
        v = gamma_mass(rs2, DiscreteMeasure.dirac(1))
        with pytest.raises(RootMismatch):
            sobolev_ipm_distance(prep0, u, v, 2.0)

    @pytest.mark.parametrize("per_pair", [sobolev_ipm_distance, sobolev_transport_distance])
    def test_per_pair_needs_one_row_tables(self, path_graph, per_pair):
        rs, prep = prepare_root(path_graph, 0)
        table = gamma_masses(rs, [DiscreteMeasure.dirac(1), DiscreteMeasure.dirac(2)])
        empty = gamma_masses(rs, [])
        one = table.row(0)
        for u, v in ((table, one), (one, table), (empty, one), (one, empty)):
            with pytest.raises(ValueError):
                per_pair(prep, u, v, 2.0)
        assert per_pair(prep, one, table.row(1), 2.0) == per_pair(
            prep, gamma_mass(rs, DiscreteMeasure.dirac(1)),
            gamma_mass(rs, DiscreteMeasure.dirac(2)), 2.0,
        )

    def test_table_from_another_root(self, path_graph):
        _, prep0 = prepare_root(path_graph, 0)
        rs2, _ = prepare_root(path_graph, 2)
        table = gamma_masses(rs2, [DiscreteMeasure.dirac(0), DiscreteMeasure.dirac(1)])
        for first, second in (([0], [1]), ([], [])):
            with pytest.raises(RootMismatch):
                pair_distances(prep0, table, np.array(first), np.array(second), 2.0)

    def test_measure_distance_variants(self, path_graph):
        rs, prep = prepare_root(path_graph, 0)
        mu, nu = DiscreteMeasure.dirac(1), DiscreteMeasure.dirac(2)
        assert measure_distance(rs, prep, mu, nu, 1.0, VARIANT_SOBOLEV_TRANSPORT) == 1.0
        assert measure_distance(rs, prep, mu, nu, math.inf) == 1.0
        with pytest.raises(ValueError):
            measure_distance(rs, prep, mu, nu, 1.0, "nope")
        with pytest.raises(InvalidExponent):
            measure_distance(rs, prep, mu, nu, 0.9)
        with pytest.raises(InvalidExponent):
            measure_distance(rs, prep, mu, nu, math.inf, VARIANT_SOBOLEV_TRANSPORT)

    @pytest.mark.parametrize("seed", range(4))
    def test_infinity_same_bits_on_every_path(self, seed):
        g = random_weighted_graph(seed)
        rs, prep = prepare_root(g, 0)
        ms = random_measures(g, 6, 3, seed=seed)
        table = gamma_masses(rs, ms)
        i, j = np.triu_indices(len(ms), 1)
        batch = pair_distances(prep, table, i, j, math.inf)
        for k, (a, b) in enumerate(zip(i, j)):
            one = sobolev_ipm_distance(prep, table.row(a), table.row(b), math.inf)
            by_measure = measure_distance(rs, prep, ms[a], ms[b], math.inf)
            assert one > 0.0
            assert np.float64(one).tobytes() == np.float64(by_measure).tobytes()
            assert np.float64(one).tobytes() == batch[k].tobytes()
        # the max form's weights 1 / (1 + lam) are made once per root, one per
        # tree edge, and kept on the prep as beta is
        weights = _edge_weights(prep, math.inf, VARIANT_SOBOLEV_IPM)
        assert prep.beta_cache.keys() == {math.inf} and prep.beta_cache[math.inf] is weights
        assert _edge_weights(prep, math.inf, VARIANT_SOBOLEV_IPM) is weights
        assert weights.tobytes() == (1.0 / (1.0 + prep.lambda_gamma)).tobytes()
        assert weights.size == g.node_count - 1 and not weights.flags.writeable


class TestMetricBehavior:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, math.inf])
    def test_symmetry_bitwise(self, seed, p):
        g = random_weighted_graph(seed)
        rng = np.random.default_rng(seed)
        rs, prep = prepare_root(g, int(rng.integers(g.node_count)))
        picks = rng.choice(g.node_count, size=4, replace=False)
        mu = DiscreteMeasure((int(picks[0]), int(picks[1])), (0.3, 0.7))
        nu = DiscreteMeasure((int(picks[2]), int(picks[3])), (0.6, 0.4))
        assert measure_distance(rs, prep, mu, nu, p) == measure_distance(
            rs, prep, nu, mu, p
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_order_one_equals_transport_bitwise(self, seed):
        # same weights (raw lengths), same accumulation: identical floats
        g = random_weighted_graph(seed)
        rs, prep = prepare_root(g, 0)
        rng = np.random.default_rng(seed)
        picks = rng.choice(g.node_count, size=4, replace=False)
        mu = DiscreteMeasure((int(picks[0]), int(picks[1])), (0.5, 0.5))
        nu = DiscreteMeasure((int(picks[2]), int(picks[3])), (0.25, 0.75))
        u, v = gamma_mass(rs, mu), gamma_mass(rs, nu)
        assert sobolev_ipm_distance(prep, u, v, 1.0) == sobolev_transport_distance(
            prep, u, v, 1.0
        )

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_transport_sandwich(self, seed, p):
        g = random_weighted_graph(seed)
        rs, prep = prepare_root(g, 0)
        rng = np.random.default_rng(seed + 7)
        picks = rng.choice(g.node_count, size=4, replace=False)
        mu = DiscreteMeasure((int(picks[0]), int(picks[1])), (0.3, 0.7))
        nu = DiscreteMeasure((int(picks[2]), int(picks[3])), (0.9, 0.1))
        u, v = gamma_mass(rs, mu), gamma_mass(rs, nu)
        s = sobolev_ipm_distance(prep, u, v, p)
        st = sobolev_transport_distance(prep, u, v, p)
        L = g.total_length
        slack = 1e-9 * max(st, 1.0)
        assert (1.0 + L) ** ((1.0 - p) / p) * st <= s + slack
        assert s <= st + slack

    @pytest.mark.parametrize("seed", range(3))
    def test_triangle_inequality_spot(self, seed):
        g = random_weighted_graph(seed)
        rs, prep = prepare_root(g, 0)
        rng = np.random.default_rng(seed + 11)
        ms = []
        for _ in range(3):
            picks = rng.choice(g.node_count, size=3, replace=False)
            mass = rng.dirichlet(np.ones(3))
            ms.append(
                DiscreteMeasure(tuple(int(x) for x in picks), tuple(mass / mass.sum()))
            )
        for p in (1.0, 1.5, 2.0, math.inf):
            d01 = measure_distance(rs, prep, ms[0], ms[1], p)
            d12 = measure_distance(rs, prep, ms[1], ms[2], p)
            d02 = measure_distance(rs, prep, ms[0], ms[2], p)
            assert d02 <= d01 + d12 + 1e-9 * max(d02, d01 + d12, 1.0)


def csr_rows(rng, counts, n_edges):
    """CSR rows with ``counts`` entries each: sorted distinct edges and signed
    differences spanning many magnitudes, some exactly zero."""
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)
    edges = np.concatenate(
        [np.sort(rng.choice(n_edges, c, replace=False)) for c in counts] + [[]]
    ).astype(np.intp)
    diff = rng.standard_normal(edges.size) * 10.0 ** rng.uniform(-8, 3, edges.size)
    diff[::7] = 0.0
    return indptr, edges, diff


class TestReducePairs:
    @pytest.mark.parametrize("seed", range(5))
    def test_max_matches_scatter_max(self, seed):
        # pairs 0 and n-1 and a run in the middle have no entries
        rng = np.random.default_rng(seed)
        n_pairs, n_edges = 40, 30
        counts = rng.integers(0, 6, n_pairs)
        counts[[0, 17, 18, n_pairs - 1]] = 0
        indptr, edges, diff = csr_rows(rng, counts, n_edges)
        rows = np.repeat(np.arange(n_pairs), counts)
        lam = rng.random(n_edges) * 10.0  # downstream lengths: the weight is 1 / (1 + lam)
        want = np.zeros(n_pairs)
        np.maximum.at(want, rows, (1.0 / (1.0 + lam[edges])) * np.abs(diff))
        got = _reduce_pairs(indptr, edges, diff, 1.0 / (1.0 + lam), math.inf)
        assert got.tobytes() == want.tobytes()
        empty = np.zeros(0, dtype=np.intp)
        got = _reduce_pairs(np.zeros(4, dtype=np.intp), empty, np.zeros(0), lam, math.inf)
        assert got.tolist() == [0.0] * 3

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
    @pytest.mark.parametrize(
        "counts",
        [[0, 4, 0, 0, 9, 1, 0], [6], [0], [0, 0, 0], "many"],
        ids=["gaps", "one-row", "one-empty-row", "all-empty", "many"],
    )
    def test_rows_equal_sequential_python_sum(self, p, counts):
        rng = np.random.default_rng(7)
        n_edges = 60
        if counts == "many":
            counts = rng.integers(0, 40, 500)
            counts[[0, 250, 251, -1]] = 0
        indptr, edges, diff = csr_rows(rng, np.asarray(counts), n_edges)
        weights = rng.random(n_edges) * 10.0 ** rng.uniform(-3, 3, n_edges)
        # elementwise as numpy computes it; each row then reduced in order.
        # At p = inf the weights stand for 1 / (1 + lam), lam the downstream
        # lengths.
        terms = np.abs(diff) if p in (1.0, math.inf) else np.abs(diff) ** p
        terms = (weights[edges] * terms).tolist()
        want = []
        for start, stop in zip(indptr[:-1], indptr[1:]):
            acc = 0.0
            for term in terms[start:stop]:
                acc = max(acc, term) if math.isinf(p) else acc + term
            want.append(acc)
        want = np.array(want)
        if math.isfinite(p) and p != 1.0:
            want = want ** (1.0 / p)
        got = _reduce_pairs(indptr, edges, diff, weights, p)
        assert got.tobytes() == want.tobytes()

    def test_order_two_squares_signed_differences(self):
        # p = 2 skips np.abs: d * d has the bits of |d| * |d|
        rng = np.random.default_rng(11)
        indptr, edges, diff = csr_rows(rng, rng.integers(0, 30, 200), 60)
        assert (diff < 0).any() and (diff > 0).any()
        weights = rng.random(60) * 10.0 ** rng.uniform(-3, 3, 60)
        want = _reduce_pairs(indptr, edges, np.abs(diff), weights, 2.0)
        for signed in (diff, -diff):
            got = _reduce_pairs(indptr, edges, signed.copy(), weights, 2.0)
            assert got.tobytes() == want.tobytes()
        # against the dict-merge oracle, each pair in both orders, so every
        # nonzero difference is merged once with each sign
        _, prep, table = merge_pool(3)
        first, second = (a.ravel() for a in np.meshgrid(np.arange(len(table)), [0, 4, 9]))
        first, second = np.concatenate([first, second]), np.concatenate([second, first])
        weights = _edge_weights(prep, 2.0, VARIANT_SOBOLEV_IPM)
        oracle = oracle_distances(table, first, second, weights, 2.0)
        assert oracle.max() > 0.0
        assert pair_distances(prep, table, first, second, 2.0).tobytes() == oracle.tobytes()

    def test_identical_measures_at_distance_zero(self, figure_graph):
        rs, prep = prepare_root(figure_graph, 0)
        ms = [DiscreteMeasure((3, 9), (0.5, 0.5)), DiscreteMeasure.dirac(2)]
        table = gamma_masses(rs, ms + [DiscreteMeasure((3, 9), (0.5, 0.5))])
        got = pair_distances(prep, table, np.array([0, 0, 1, 0]), np.array([2, 1, 1, 0]), math.inf)
        one = measure_distance(rs, prep, ms[0], ms[1], math.inf)
        assert got.tolist() == [0.0, one, 0.0, 0.0]
        assert one > 0.0


def merge_pool(seed: int, support: int = 3, tail: tuple = ()):
    """A prepared root and a table whose rows include a root Dirac (an
    empty row), a repeated measure and a zero-mass support point (stored
    zeros), then the measures ``tail``."""
    g = random_weighted_graph(seed, 30, 60)
    rs, prep = prepare_root(g, 0)
    ms = random_measures(g, 8, support, seed=seed)
    deep = int(np.argmax(rs.depth))
    ms += [
        DiscreteMeasure.dirac(0),
        ms[2],
        DiscreteMeasure((1 if deep != 1 else 2, deep), (1.0, 0.0)),
        *tail,
    ]
    table = gamma_masses(rs, ms)
    assert np.diff(table.indptr)[8] == 0 and (table.values == 0.0).any()
    return rs, prep, table


def oracle_distances(table, first, second, weights, p):
    """Naive pair distances: a dict union of the two rows, edges sorted,
    terms summed one by one in Python.  Powers are taken as numpy arrays,
    as the library takes them.  At ``p = inf`` the weights are
    ``1 / (1 + lam)``, ``lam`` the downstream lengths, and each row takes
    the largest weighted term."""
    weights = weights.tolist()
    sums = []
    for a, b in zip(first, second):
        u, v = (dict(zip(r.edge_ids.tolist(), r.values.tolist())) for r in map(table.row, (a, b)))
        edges = sorted(u.keys() | v.keys())
        diff = np.abs(np.array([u.get(e, 0.0) - v.get(e, 0.0) for e in edges]))
        terms = diff if p in (1.0, math.inf) else diff**p
        acc = 0.0
        for e, term in zip(edges, terms.tolist()):
            if math.isinf(p):
                acc = max(acc, term * weights[e])
            else:
                acc += term * weights[e]
        sums.append(acc)
    sums = np.array(sums)
    return sums if p in (1.0, math.inf) else sums ** (1.0 / p)


class TestMergeOracle:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "p, variant",
        [(p, VARIANT_SOBOLEV_IPM) for p in (1.0, 1.5, 2.0, 3.0, math.inf)]
        + [(p, VARIANT_SOBOLEV_TRANSPORT) for p in (1.0, 1.5, 2.0, 3.0)],
    )
    def test_batch_and_per_pair_equal_naive_merge(self, seed, p, variant):
        _, prep, table = merge_pool(seed)
        n = len(table)
        first, second = (a.ravel() for a in np.meshgrid(np.arange(n), np.arange(n)))
        want = oracle_distances(table, first, second, _edge_weights(prep, p, variant), p)
        assert want[(first == 8) & (second != 8)].min() > 0.0
        assert want[first == second].tolist() == [0.0] * n
        assert want[(first == 2) & (second == 9)].tolist() == [0.0]
        got = pair_distances(prep, table, first, second, p, variant)
        assert got.tobytes() == want.tobytes()
        per_pair = sobolev_ipm_distance
        if variant == VARIANT_SOBOLEV_TRANSPORT:
            per_pair = sobolev_transport_distance
        for k, (a, b) in enumerate(zip(first, second)):
            one = per_pair(prep, table.row(a), table.row(b), p)
            assert np.float64(one).tobytes() == want[k].tobytes()


class TestBlocks:
    @pytest.mark.parametrize("p", [1.5, math.inf])
    def test_block_size_changes_no_bit(self, monkeypatch, p):
        _, prep, table = merge_pool(4, support=6)
        i, j = np.triu_indices(len(table))
        default = pair_distances(prep, table, i, j, p)
        assert np.diff(table.indptr).max() > 5  # a pair overflows the smaller blocks
        for entries in (1, 2, 5, 64):
            monkeypatch.setattr(metrics, "_BLOCK_ENTRIES", entries)
            assert pair_distances(prep, table, i, j, p).tobytes() == default.tobytes()

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_listed_pair_scratch_per_pair(self, monkeypatch, lanes):
        # the result (8 bytes a pair) and one running entry count of both
        # sides (8 more, plus its 8-byte-a-pair summand while it is made);
        # the rows are read as given, and the lanes' buffers are block-sized,
        # so at 400k pairs the traced peak stays under 32 bytes a pair
        g = random_weighted_graph(2, 200, 600)
        rs, prep = prepare_root(g, 0)
        table = gamma_masses(rs, random_measures(g, 50, 5, seed=3))
        first, second = np.random.default_rng(4).integers(0, len(table), (2, 400_000))
        monkeypatch.setattr(metrics, "_lane_count", lambda: lanes)
        want = pair_distances(prep, table, first, second, 2.0)
        got, peak, _ = traced_peak(lambda: pair_distances(prep, table, first, second, 2.0))
        assert got.tobytes() == want.tobytes()
        assert peak / first.size <= 32.0, peak / first.size

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_sliced_listed_pair_scratch_per_pair(self, monkeypatch, lanes):
        # the root sum (8 bytes a pair), each side's table row (16) and the
        # core's running entry count (8, plus its summand while it is made);
        # the listed measures are marked in use without joining the two
        # sides, so at 400k pairs the traced peak stays under 48 bytes a pair
        g = random_weighted_graph(2, 200, 600)
        ms = random_measures(g, 300, 5, seed=3)
        rng = np.random.default_rng(4)
        in_use = rng.choice(len(ms), 250, replace=False)
        first, second = in_use[rng.integers(0, in_use.size, (2, 400_000))]
        roots = [0, 7, 42]
        monkeypatch.setattr(metrics, "_lane_count", lambda: 1)
        want, _, _ = sliced_pair_distances(g, ms, roots, first, second, 2.0)
        monkeypatch.setattr(metrics, "_lane_count", lambda: lanes)
        (got, _, _), peak, _ = traced_peak(
            lambda: sliced_pair_distances(g, ms, roots, first, second, 2.0)
        )
        assert got.tobytes() == want.tobytes()
        assert peak / first.size <= 48.0, peak / first.size


@pytest.fixture
def no_kernels(monkeypatch):
    """The scipy kernels raise if called: checks must come first."""

    def kernel(*args):
        raise AssertionError("a kernel ran")

    for name in ("csr_row_index", "csr_minus_csr", "csr_matvec"):
        monkeypatch.setattr(metrics, name, kernel)


class TestRowSafety:
    @pytest.mark.parametrize("bad", [4, 5, -1, -5, 1 << 40, -(1 << 40)])
    def test_out_of_range_rows_raise(self, path_graph, no_kernels, bad):
        rs, prep = prepare_root(path_graph, 0)
        table = gamma_masses(rs, [DiscreteMeasure.dirac(x) for x in (0, 1, 2, 1)])
        with pytest.raises(IndexError):
            pair_distances(prep, table, np.array([0, bad]), np.array([1, 2]), 2.0)
        with pytest.raises(IndexError):
            pair_distances(prep, table, np.array([0, 1]), np.array([bad, 2]), 2.0)

    def test_unequal_lengths_raise(self, path_graph, no_kernels):
        rs, prep = prepare_root(path_graph, 0)
        table = gamma_masses(rs, [DiscreteMeasure.dirac(x) for x in (0, 1, 2)])
        for first, second in (([0, 1], [2]), ([0], [1, 2]), ([], [1])):
            with pytest.raises(ValueError):
                pair_distances(prep, table, np.array(first), np.array(second), 2.0)

    def test_empty_input(self, path_graph, no_kernels):
        rs, prep = prepare_root(path_graph, 0)
        table = gamma_masses(rs, [DiscreteMeasure.dirac(1)])
        got = pair_distances(prep, table, np.array([], dtype=int), np.array([], dtype=int), 2.0)
        assert got.dtype == np.float64 and got.shape == (0,)
        rs2, _ = prepare_root(path_graph, 2)
        other = gamma_masses(rs2, [DiscreteMeasure.dirac(1)])
        with pytest.raises(RootMismatch):
            pair_distances(prep, other, np.array([]), np.array([]), 2.0)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_sliced_out_of_range_rows_raise(self, path_graph, no_kernels, bad):
        ms = [DiscreteMeasure.dirac(x) for x in (0, 1, 2)]
        for first, second in (([0, bad], [1, 2]), ([0, 1], [bad, 2])):
            with pytest.raises(IndexError, match=f"row {bad} outside"):
                sliced_pair_distances(path_graph, ms, [0], np.array(first), np.array(second), 2.0)


class TestLanes:
    """Blocks dealt to parallel lanes: the same bits for every lane count,
    no thread for one block, and no thread left once a call returns."""

    @pytest.mark.parametrize(
        "p, variant",
        [(p, VARIANT_SOBOLEV_IPM) for p in (1.0, 1.5, 2.0, math.inf)]
        + [(p, VARIANT_SOBOLEV_TRANSPORT) for p in (1.0, 1.5, 2.0)],
    )
    def test_lane_count_changes_no_bit(self, monkeypatch, p, variant):
        # every ordered pair, i > j and i == j included; the last row is a
        # second root Dirac, so the table also ends in a row without entries
        _, prep, table = merge_pool(4, support=6, tail=(DiscreteMeasure.dirac(0),))
        n = len(table)
        assert np.diff(table.indptr)[-1] == 0
        i, j = (a.ravel() for a in np.meshgrid(np.arange(n), np.arange(n)))
        want = oracle_distances(table, i, j, _edge_weights(prep, p, variant), p)
        threads = threading.active_count()
        for entries in (1, 5, 64):
            monkeypatch.setattr(metrics, "_BLOCK_ENTRIES", entries)
            for lanes in (1, 2, 3):
                monkeypatch.setattr(metrics, "_lane_count", lambda: lanes)
                got = pair_distances(prep, table, i, j, p, variant)
                assert got.tobytes() == want.tobytes()
                assert threading.active_count() == threads

    def test_one_block_starts_no_thread(self, monkeypatch):
        _, prep, table = merge_pool(4, support=6)
        i, j = np.triu_indices(len(table))
        want = pair_distances(prep, table, i, j, 1.5)

        class NoThread:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a thread was started")

        monkeypatch.setattr(metrics, "_lane_count", lambda: 4)
        monkeypatch.setattr(threading, "Thread", NoThread)
        assert pair_distances(prep, table, i, j, 1.5).tobytes() == want.tobytes()
        assert pair_distances(prep, table, i[:1], j[:1], 1.5).tobytes() == want[:1].tobytes()
        monkeypatch.setattr(metrics, "_BLOCK_ENTRIES", 5)  # many blocks: lanes start
        with pytest.raises(AssertionError, match="a thread was started"):
            pair_distances(prep, table, i, j, 1.5)

    @pytest.mark.parametrize("lane", [0, 1])
    def test_error_in_a_lane_is_raised_after_the_join(self, monkeypatch, lane):
        _, prep, table = merge_pool(4, support=6)
        i, j = np.triu_indices(len(table))
        gather = metrics.csr_row_index
        main = threading.main_thread()

        def failing(*args):
            if (threading.current_thread() is main) == (lane == 0):
                raise MemoryError(f"lane {lane} failed")
            gather(*args)

        monkeypatch.setattr(metrics, "_BLOCK_ENTRIES", 5)
        monkeypatch.setattr(metrics, "_lane_count", lambda: 2)
        monkeypatch.setattr(metrics, "csr_row_index", failing)
        threads = threading.active_count()
        with pytest.raises(MemoryError, match=f"lane {lane} failed"):
            pair_distances(prep, table, i, j, 2.0)
        assert threading.active_count() == threads

    def test_scratch_made_in_the_calling_thread_before_any_lane(self, monkeypatch):
        # every lane's buffers come from the calling thread, while no lane
        # thread runs yet, and each lane gets the buffers made for its blocks
        main, threads = threading.main_thread(), threading.active_count()
        made, ran = [], []

        def buffers(starts, stops):
            assert threading.current_thread() is main
            assert threading.active_count() == threads
            made.append(starts.tolist())
            return object()

        def run_lane(starts, stops, scratch):
            ran.append((starts.tolist(), scratch))

        monkeypatch.setattr(metrics, "_lane_count", lambda: 3)
        metrics._in_lanes(np.arange(0, 80, 10), buffers, run_lane)
        assert made == [[0, 30, 60], [10, 40], [20, 50]]
        assert sorted(starts for starts, _ in ran) == sorted(made)
        assert len({id(scratch) for _, scratch in ran}) == 3

    def test_every_lane_keeps_the_callers_errstate(self, monkeypatch):
        seen = []
        monkeypatch.setattr(metrics, "_lane_count", lambda: 3)
        with np.errstate(over="ignore"):
            metrics._in_lanes(
                np.arange(0, 80, 10), lambda *_: None,
                lambda *_: seen.append(np.geterr()["over"]),
            )
        assert seen == ["ignore"] * 3

    def test_import_starts_no_thread(self):
        src = str(Path(metrics.__file__).resolve().parents[1])
        code = "import threading, gsobolev.cli; print(threading.active_count())"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0 and proc.stdout == "1\n"


class TestAllPairs:
    """``first = second = None``: every pair ``i < j``, never listed."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_triangle_equals_triu_indices(self, n):
        tri = metrics._Triangle(n)
        i, j = np.triu_indices(n, 1)
        assert tri.size == i.size
        rows, cols = tri.locate(np.arange(i.size))
        assert rows.tolist() == i.tolist() and cols.tolist() == j.tolist()

    @pytest.mark.parametrize(
        "p, variant",
        [(p, VARIANT_SOBOLEV_IPM) for p in (1.0, 1.5, 2.0, math.inf)]
        + [(p, VARIANT_SOBOLEV_TRANSPORT) for p in (1.0, 1.5, 2.0)],
    )
    def test_equal_listed_pairs_in_every_block_and_lane(self, monkeypatch, p, variant):
        _, prep, table = merge_pool(4, support=6)
        n = len(table)
        i, j = np.triu_indices(n, 1)
        want = pair_distances(prep, table, i, j, p, variant)
        # into a matrix R: R plus the listed values scattered to (i, j) and
        # (j, i), the diagonal left as it is
        R = np.random.default_rng(3).uniform(0.5, 2.0, (n, n))
        S = np.zeros((n, n))
        S[i, j] = S[j, i] = want
        threads = threading.active_count()
        for entries in (1, 5, 64, 1 << 15):
            monkeypatch.setattr(metrics, "_BLOCK_ENTRIES", entries)
            for lanes in (1, 2, 3):
                monkeypatch.setattr(metrics, "_lane_count", lambda: lanes)
                got = pair_distances(prep, table, None, None, p, variant)
                assert got.tobytes() == want.tobytes()
                D = R.copy()
                assert pair_distances(prep, table, None, None, p, variant, into=D) is D
                assert D.tobytes() == (R + S).tobytes()
                assert np.diag(D).tobytes() == np.diag(R).tobytes()
                assert threading.active_count() == threads

    def test_values_are_added(self):
        _, prep, table = merge_pool(1)
        i, j = np.triu_indices(len(table), 1)
        want = pair_distances(prep, table, i, j, 1.5)
        acc = np.full(i.size, 0.25)
        assert pair_distances(prep, table, None, None, 1.5, into=acc) is acc
        assert acc.tobytes() == (0.25 + want).tobytes()
        # listed pairs, here in reverse and with a repeat, add into a vector too
        first, second = np.append(j[::-1], 3), np.append(i[::-1], 3)
        acc = np.arange(first.size) / 8.0
        assert pair_distances(prep, table, first, second, 1.5, into=acc) is acc
        listed = pair_distances(prep, table, first, second, 1.5)
        assert acc.tobytes() == (np.arange(first.size) / 8.0 + listed).tobytes()
        assert listed[:-1].tobytes() == want[::-1].tobytes() and listed[-1] == 0.0

    def test_tables_without_pairs(self, path_graph):
        rs, prep = prepare_root(path_graph, 0)
        for count in (0, 1):
            table = gamma_masses(rs, [DiscreteMeasure.dirac(1)] * count)
            got = pair_distances(prep, table, None, None, 2.0)
            assert got.dtype == np.float64 and got.shape == (0,)
            D = np.zeros((count, count))
            assert pair_distances(prep, table, None, None, 2.0, into=D) is D
        table = gamma_masses(rs, [DiscreteMeasure.dirac(x) for x in (1, 2)])
        assert pair_distances(prep, table, None, None, 1.0).tolist() == [1.0]

    def test_bad_into_raises(self, no_kernels):
        _, prep, table = merge_pool(1)
        n = len(table)
        for into in (
            np.zeros(n * (n - 1) // 2 + 1),
            np.zeros((n, n + 1)),
            np.zeros((n, n), np.float32),
            np.zeros((n, n), order="F"),
            np.zeros((n, 2 * n))[:, ::2],
        ):
            with pytest.raises(ValueError, match="into must be"):
                pair_distances(prep, table, None, None, 2.0, into=into)
        # listed pairs take a vector of one value per pair, and no matrix
        first, second = np.arange(n), np.arange(n)[::-1]
        for into in (
            np.zeros(n + 1),
            np.zeros(n - 1),
            np.zeros(n, np.float32),
            np.zeros(2 * n)[::2],
            np.zeros((n, n)),
        ):
            with pytest.raises(ValueError, match=f"into must be {n} writable"):
                pair_distances(prep, table, first, second, 2.0, into=into)


class TestSlicedDistance:
    def test_path_two_roots(self, path_graph):
        # each root separates the two diracs by exactly one unit edge
        mu, nu = DiscreteMeasure.dirac(1), DiscreteMeasure.dirac(2)
        assert sliced_distance(path_graph, [0, 2], mu, nu, 1.0) == 1.0

    def test_prepared_cache_reused(self, path_graph):
        cache: dict = {}
        mu, nu = DiscreteMeasure.dirac(1), DiscreteMeasure.dirac(2)
        sliced_distance(path_graph, [0, 2], mu, nu, 2.0, prepared=cache)
        assert set(cache) == {0, 2}
        first = {r: id(pair) for r, pair in cache.items()}
        sliced_distance(path_graph, [0, 2], mu, nu, 2.0, prepared=cache)
        assert {r: id(pair) for r, pair in cache.items()} == first

    def test_matches_mean_of_single_roots(self, figure_graph):
        mu = DiscreteMeasure((3, 9), (0.5, 0.5))
        nu = DiscreteMeasure.dirac(2)
        roots = [0, 4, 7]
        singles = []
        for r in roots:
            rs, prep = prepare_root(figure_graph, r)
            singles.append(measure_distance(rs, prep, mu, nu, 2.0))
        got = sliced_distance(figure_graph, roots, mu, nu, 2.0)
        # summed in root order from 0.0, then divided once
        assert got == sum(singles) / 3.0

    def test_empty_roots_rejected(self, path_graph):
        with pytest.raises(ValueError):
            sliced_distance(path_graph, [], DiscreteMeasure.dirac(0), DiscreteMeasure.dirac(1), 1.0)
        with pytest.raises(ValueError):
            sliced_pair_distances(path_graph, [DiscreteMeasure.dirac(0)] * 2, [], None, None, 1.0)

    @pytest.mark.parametrize("roots", [[3], [3, 0, 11]])
    @pytest.mark.parametrize(
        "p, variant",
        [(p, VARIANT_SOBOLEV_IPM) for p in (1.0, 1.5, 2.0, math.inf)]
        + [(p, VARIANT_SOBOLEV_TRANSPORT) for p in (1.0, 1.5, 2.0)],
    )
    def test_pair_batch_is_bit_equal(self, roots, p, variant):
        # the batch over roots adds the per-root values as sliced_distance
        # does, for listed pairs, for all pairs, and into an n x n matrix
        g = random_weighted_graph(7, n_lo=14, n_hi=14)
        ms = random_measures(g, 6, 3, seed=2)
        n = len(ms)

        def one(i, j):
            return sliced_distance(g, roots, ms[i], ms[j], p, variant)

        # reversed, repeated and self pairs, and measure 5 never used
        first, second = np.array([0, 3, 1, 2, 0, 4, 2]), np.array([1, 1, 3, 2, 1, 0, 4])
        got, prep_ms, eval_ms = sliced_pair_distances(g, ms, roots, first, second, p, variant)
        assert got.tolist() == [one(i, j) for i, j in zip(first.tolist(), second.tolist())]
        assert prep_ms >= 0.0 and eval_ms >= 0.0

        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        want = [one(i, j) for i, j in pairs]
        got, _, _ = sliced_pair_distances(g, ms, roots, None, None, p, variant)
        assert got.tolist() == want

        D, _, _ = sliced_pair_distances(
            g, ms, roots, None, None, p, variant, into=np.zeros((n, n))
        )
        expected = np.zeros((n, n))
        for (i, j), d in zip(pairs, want):
            expected[i, j] = expected[j, i] = d
        assert D.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("roots", [[3], [3, 0, 11]], ids=["one-root", "sliced-3"])
    def test_tree_freed_before_pair_core(self, monkeypatch, roots):
        # each root's tree is dropped as soon as its Γ table is built, so it
        # is gone before the pair core allocates its buffers
        g = random_weighted_graph(7, n_lo=14, n_hi=14)
        ms = random_measures(g, 6, 3, seed=2)
        trees, freed = [], []
        gamma_masses, pair_distances = metrics.gamma_masses, metrics.pair_distances

        def gamma(rs, pool):
            trees.append(weakref.ref(rs))
            return gamma_masses(rs, pool)

        def core(*args, **kwargs):
            freed.append(trees[-1]() is None)
            return pair_distances(*args, **kwargs)

        monkeypatch.setattr(metrics, "gamma_masses", gamma)
        monkeypatch.setattr(metrics, "pair_distances", core)
        sliced_pair_distances(g, ms, roots, None, None, 2.0)
        assert len(trees) == len(roots) and freed == [True] * len(roots)

    @pytest.mark.filterwarnings("error")  # the refusal is the only report
    @pytest.mark.parametrize(
        "edges, roots, pair",
        [
            # two leaves 1e308 from the root: one root's sum over edges overflows
            ([(0, 1, 1e308), (0, 2, 1e308)], [0], (1, 2)),
            # each root's value is below the float maximum, their sum is not
            ([(0, 1, 1e308), (1, 2, 1.0), (1, 3, 1.0)], [2, 3], (0, 1)),
        ],
        ids=["over-edges", "over-roots"],
    )
    def test_overflowing_sum_refused(self, edges, roots, pair):
        g = Graph.from_edges(len(edges) + 1, edges)
        ms = [DiscreteMeasure.dirac(v) for v in range(3)]
        message = f"the distance of measures {pair[0]} and {pair[1]} is inf at p = 1.0"
        listed = (np.array([pair[0], 0]), np.array([pair[1], 0]))
        for first, second, into in [(*listed, None), (None, None, None),
                                    (None, None, np.zeros((3, 3)))]:
            with pytest.raises(NonPositiveWeight, match=message):
                sliced_pair_distances(g, ms, roots, first, second, 1.0, into=into)
        # the per-pair functions refuse it too, with no pair to name
        mu, nu = ms[pair[0]], ms[pair[1]]
        with pytest.raises(NonPositiveWeight, match="the distance is inf at p = 1.0: "):
            sliced_distance(g, roots, mu, nu, 1.0)
        if len(roots) == 1:
            rs, prep = prepare_root(g, roots[0])
            u, v = gamma_mass(rs, mu), gamma_mass(rs, nu)
            for call in (lambda: measure_distance(rs, prep, mu, nu, 1.0),
                         lambda: sobolev_ipm_distance(prep, u, v, 1.0),
                         lambda: sobolev_transport_distance(prep, u, v, 1.0)):
                with pytest.raises(NonPositiveWeight, match="the distance is inf at p = 1.0: "):
                    call()


class TestSampleRoots:
    def test_distinct_in_range_deterministic(self, figure_graph):
        a = sample_roots(figure_graph, 4, seed=5)
        b = sample_roots(figure_graph, 4, seed=5)
        assert a == b
        assert len(set(a)) == 4
        assert all(0 <= r < 10 for r in a)

    def test_bounds(self, figure_graph):
        with pytest.raises(ValueError):
            sample_roots(figure_graph, 0, seed=0)
        with pytest.raises(ValueError):
            sample_roots(figure_graph, 11, seed=0)
