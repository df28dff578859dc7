"""Slow references: transport LP, Simpson quadrature, direct discretization."""

from __future__ import annotations

import math

import numpy as np
import pytest

from gsobolev import (
    DiscreteMeasure,
    InfeasibleMass,
    InvalidExponent,
    SizeLimitExceeded,
    beta_quadrature,
    distance_by_discretization,
    gamma_mass,
    prepare_root,
    random_tree,
    sobolev_ipm_distance,
    transport_plan_lp,
    wasserstein1_lp,
)
from gsobolev import oracles
from conftest import random_weighted_graph


class TestTransportLP:
    def test_path_diracs(self, path_graph):
        assert wasserstein1_lp(path_graph, DiscreteMeasure.dirac(1), DiscreteMeasure.dirac(2)) == pytest.approx(1.0, abs=1e-12)
        assert wasserstein1_lp(path_graph, DiscreteMeasure.dirac(0), DiscreteMeasure.dirac(2)) == pytest.approx(2.0, abs=1e-12)

    def test_path_split_mass(self, path_graph):
        mu = DiscreteMeasure((0, 2), (0.5, 0.5))
        nu = DiscreteMeasure.dirac(1)
        assert wasserstein1_lp(path_graph, mu, nu) == pytest.approx(1.0, abs=1e-12)

    def test_figure_dirac(self, figure_graph):
        got = wasserstein1_lp(figure_graph, DiscreteMeasure.dirac(4), DiscreteMeasure.dirac(0))
        assert got == pytest.approx(2.0, abs=1e-12)

    def test_triangle_uses_direct_edge(self, triangle):
        got = wasserstein1_lp(triangle, DiscreteMeasure.dirac(1), DiscreteMeasure.dirac(2))
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_plan_structure(self, path_graph):
        mu = DiscreteMeasure((0, 2), (0.25, 0.75))
        nu = DiscreteMeasure((1,), (1.0,))
        sol = transport_plan_lp(path_graph, mu, nu)
        assert sol.cost.shape == (2, 1)
        np.testing.assert_allclose(sol.cost[:, 0], [1.0, 1.0])
        np.testing.assert_allclose(sol.plan.sum(axis=1), [0.25, 0.75], atol=1e-12)
        np.testing.assert_allclose(sol.plan.sum(axis=0), [1.0], atol=1e-12)
        assert sol.objective == pytest.approx(float((sol.plan * sol.cost).sum()), abs=1e-12)

    def test_identical_measures_cost_zero(self, figure_graph):
        mu = DiscreteMeasure((2, 6), (0.5, 0.5))
        assert wasserstein1_lp(figure_graph, mu, mu) == pytest.approx(0.0, abs=1e-12)

    def test_node_cap(self, figure_graph, monkeypatch):
        monkeypatch.setattr(oracles, "LP_MAX_NODES", 5)
        with pytest.raises(SizeLimitExceeded):
            wasserstein1_lp(figure_graph, DiscreteMeasure.dirac(0), DiscreteMeasure.dirac(1))

    def test_support_cap(self, figure_graph, monkeypatch):
        monkeypatch.setattr(oracles, "LP_MAX_SUPPORT", 1)
        mu = DiscreteMeasure((0, 1), (0.5, 0.5))
        with pytest.raises(SizeLimitExceeded):
            wasserstein1_lp(figure_graph, mu, DiscreteMeasure.dirac(0))

    def test_total_mass_guard(self, path_graph):
        # both pass measure validation yet differ by more than the LP allows
        mu = DiscreteMeasure((0,), (1.0 + 9e-10,))
        nu = DiscreteMeasure((2,), (1.0 - 9e-10,))
        with pytest.raises(InfeasibleMass):
            transport_plan_lp(path_graph, mu, nu)

    def test_symmetry(self, figure_graph):
        mu = DiscreteMeasure((3, 7), (0.4, 0.6))
        nu = DiscreteMeasure((2, 9), (0.5, 0.5))
        ab = wasserstein1_lp(figure_graph, mu, nu)
        ba = wasserstein1_lp(figure_graph, nu, mu)
        assert ab == pytest.approx(ba, rel=1e-10)


class TestBetaQuadrature:
    def test_unit_edge_order_two(self):
        assert beta_quadrature(0.0, 1.0, 2.0) == pytest.approx(
            math.log(2.0), rel=1e-12
        )

    def test_unit_edge_order_three_halves(self):
        assert beta_quadrature(0.0, 1.0, 1.5) == pytest.approx(
            0.8284271247461903, rel=1e-12
        )

    def test_order_one_exact(self):
        # constant integrand: Simpson is exact at any step count
        assert beta_quadrature(5.0, 0.37, 1.0, steps=2) == pytest.approx(
            0.37, rel=1e-15
        )

    @pytest.mark.parametrize("steps", [100, 101])
    def test_odd_steps_rounded_up(self, steps):
        a = beta_quadrature(1.0, 2.0, 3.0, steps=100)
        b = beta_quadrature(1.0, 2.0, 3.0, steps=101)
        # 101 becomes 102 subintervals; both land within mutual tolerance
        assert a == pytest.approx(b, rel=1e-9)

    def test_general_order_matches_antiderivative(self):
        lam, w, p = 2.5, 0.8, 3.3
        q = 2.0 - p
        exact = ((1.0 + lam + w) ** q - (1.0 + lam) ** q) / q
        assert beta_quadrature(lam, w, p) == pytest.approx(exact, rel=1e-12)

    def test_rejects_bad_order(self):
        for p in (0.5, math.inf, math.nan):
            with pytest.raises(InvalidExponent):
                beta_quadrature(0.0, 1.0, p)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            beta_quadrature(-0.1, 1.0, 2.0)
        with pytest.raises(ValueError):
            beta_quadrature(0.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            beta_quadrature(0.0, 1.0, 2.0, steps=1)


class TestDiscretization:
    def test_path_order_one_exact(self, path_graph):
        # order one has a piecewise constant integrand, so the midpoint
        # rule is exact even at the minimum resolution
        mu, nu = DiscreteMeasure.dirac(1), DiscreteMeasure.dirac(2)
        got = distance_by_discretization(path_graph, 0, mu, nu, 1.0, resolution=10)
        assert got == pytest.approx(1.0, rel=1e-15)

    def test_path_order_two(self, path_graph):
        mu, nu = DiscreteMeasure.dirac(1), DiscreteMeasure.dirac(2)
        got = distance_by_discretization(path_graph, 0, mu, nu, 2.0, resolution=50_000)
        assert got == pytest.approx(math.log(2.0), rel=1e-8)

    def test_triangle_order_two(self, triangle):
        mu, nu = DiscreteMeasure.dirac(1), DiscreteMeasure.dirac(2)
        got = distance_by_discretization(triangle, 0, mu, nu, 2.0, resolution=50_000)
        assert got == pytest.approx(2.0 * math.log(5.0 / 3.0), rel=1e-8)

    @pytest.mark.parametrize("seed,p", [(0, 1.0), (1, 1.5), (2, 2.0), (3, 2.5)])
    def test_matches_closed_form(self, seed, p):
        g = random_weighted_graph(seed, n_lo=6, n_hi=14)
        rng = np.random.default_rng(seed + 50)
        root = int(rng.integers(g.node_count))
        picks = rng.choice(g.node_count, size=4, replace=False)
        mu = DiscreteMeasure((int(picks[0]), int(picks[1])), (0.4, 0.6))
        nu = DiscreteMeasure((int(picks[2]), int(picks[3])), (0.7, 0.3))
        rs, prep = prepare_root(g, root)
        closed = sobolev_ipm_distance(prep, gamma_mass(rs, mu), gamma_mass(rs, nu), p) ** p
        ref = distance_by_discretization(g, root, mu, nu, p, resolution=40_000)
        assert ref == pytest.approx(closed, rel=2e-7, abs=1e-9)

    def test_rejects_bad_order(self, path_graph):
        mu, nu = DiscreteMeasure.dirac(0), DiscreteMeasure.dirac(1)
        for p in (0.3, math.inf, math.nan):
            with pytest.raises(InvalidExponent):
                distance_by_discretization(path_graph, 0, mu, nu, p)

    def test_rejects_tiny_resolution(self, path_graph):
        mu, nu = DiscreteMeasure.dirac(0), DiscreteMeasure.dirac(1)
        with pytest.raises(ValueError):
            distance_by_discretization(path_graph, 0, mu, nu, 1.0, resolution=5)


class TestThreeWayAgreement:
    @pytest.mark.parametrize("seed", range(3))
    def test_tree_order_one(self, seed):
        # closed form, LP, and discretization describe one number on trees
        g = random_tree(14, seed=seed)
        rng = np.random.default_rng(seed)
        root = int(rng.integers(g.node_count))
        picks = rng.choice(g.node_count, size=4, replace=False)
        mu = DiscreteMeasure((int(picks[0]), int(picks[1])), (0.5, 0.5))
        nu = DiscreteMeasure((int(picks[2]), int(picks[3])), (0.2, 0.8))
        rs, prep = prepare_root(g, root)
        s1 = sobolev_ipm_distance(prep, gamma_mass(rs, mu), gamma_mass(rs, nu), 1.0)
        w1 = wasserstein1_lp(g, mu, nu)
        disc = distance_by_discretization(g, root, mu, nu, 1.0, resolution=2000)
        assert s1 == pytest.approx(w1, abs=1e-9)
        assert s1 == pytest.approx(disc, rel=1e-12)
