"""Property-based checks over randomized inputs."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from gsobolev import (
    DiscreteMeasure,
    EdgePrep,
    beta_quadrature,
    beta_weights,
    gamma_mass,
    measure_distance,
    prepare_root,
    sobolev_ipm_distance,
    sobolev_transport_distance,
)
from conftest import random_weighted_graph

# One shared mid-size instance; measures vary per example.
GRAPH = random_weighted_graph(0, n_lo=12, n_hi=20)
RS, PREP = prepare_root(GRAPH, 0)
TOTAL = GRAPH.total_length


def one_edge(lam: float, w: float) -> EdgePrep:
    return EdgePrep(root=0, lambda_gamma=np.array([lam]), edge_lengths=np.array([w]))


def normalized(entries) -> DiscreteMeasure:
    """The measure of ``(node, weight)`` pairs rescaled to total one."""
    pairs = list(entries)
    total = math.fsum(m for _, m in pairs)
    return DiscreteMeasure(tuple(n for n, _ in pairs), tuple(m / total for _, m in pairs))


@st.composite
def measures(draw, max_support: int = 5) -> DiscreteMeasure:
    nodes = draw(
        st.lists(
            st.integers(0, GRAPH.node_count - 1),
            min_size=1,
            max_size=max_support,
            unique=True,
        )
    )
    weights = draw(
        st.lists(
            st.floats(0.01, 1.0, allow_nan=False),
            min_size=len(nodes),
            max_size=len(nodes),
        )
    )
    return normalized(zip(nodes, weights))


lams = st.floats(0.0, 20.0, allow_nan=False)
lengths = st.floats(0.05, 5.0, allow_nan=False)
orders = st.floats(1.0, 4.0, allow_nan=False)
near_two = st.floats(-1e-6, 1e-6, allow_nan=False).map(lambda eps: 2.0 + eps)


class TestBetaWeights:
    @settings(max_examples=60, deadline=None)
    @given(lam=lams, w=lengths, p=orders | near_two)
    def test_matches_quadrature(self, lam, w, p):
        closed = float(beta_weights(one_edge(lam, w), p)[0])
        ref = beta_quadrature(lam, w, p, steps=10_000)
        assert abs(closed - ref) <= 1e-8 * abs(ref)

    @settings(max_examples=40, deadline=None)
    @given(
        lam=lams,
        w=lengths,
        eps=st.sampled_from([1e-10, -1e-10, 1.5e-9, -1.5e-9, 1e-7, -1e-7]),
    )
    def test_near_two_matches_quadrature(self, lam, w, eps):
        at_two = float(beta_weights(one_edge(lam, w), 2.0)[0])
        assert at_two == np.log1p(w / (1.0 + lam))
        near = float(beta_weights(one_edge(lam, w), 2.0 + eps)[0])
        ref = beta_quadrature(lam, w, 2.0 + eps)
        assert abs(near - ref) <= 1e-12 * ref

    @settings(max_examples=40, deadline=None)
    @given(lam=lams, w=lengths, eps=st.floats(1e-7, 1e-5, allow_nan=False))
    def test_continuous_across_branch(self, lam, w, eps):
        at_two = float(beta_weights(one_edge(lam, w), 2.0)[0])
        above = float(beta_weights(one_edge(lam, w), 2.0 + eps)[0])
        below = float(beta_weights(one_edge(lam, w), 2.0 - eps)[0])
        assert abs(above - at_two) <= 1e-4 * at_two
        assert abs(below - at_two) <= 1e-4 * at_two
        # decreasing in the order, up to the cancellation noise of the
        # general branch's power difference (a few ulps of 1 divided by eps)
        noise = 4e-15 / eps
        assert below >= at_two - noise
        assert at_two >= above - noise

    @settings(max_examples=40, deadline=None)
    @given(lam=lams, w=lengths, p=st.floats(1.0, 6.0, allow_nan=False))
    def test_positive_and_at_most_length(self, lam, w, p):
        # the integrand lives in (0, 1] once lam >= 0, so 0 < beta <= w
        val = float(beta_weights(one_edge(lam, w), p)[0])
        assert 0.0 < val <= w * (1.0 + 1e-12)


class TestGammaLinearity:
    @settings(max_examples=50, deadline=None)
    @given(mu=measures(), nu=measures(), alpha=st.floats(0.0, 1.0, allow_nan=False))
    def test_mixture(self, mu, nu, alpha):
        blend: dict[int, float] = {}
        for node, mass in zip(mu.nodes, mu.masses):
            blend[node] = blend.get(node, 0.0) + alpha * mass
        for node, mass in zip(nu.nodes, nu.masses):
            blend[node] = blend.get(node, 0.0) + (1.0 - alpha) * mass
        mix = normalized(blend.items())

        dense = np.zeros(GRAPH.edge_count)
        vec = gamma_mass(RS, mix)
        dense[vec.edge_ids] = vec.values
        want = np.zeros(GRAPH.edge_count)
        for meas, scale in ((mu, alpha), (nu, 1.0 - alpha)):
            v = gamma_mass(RS, meas)
            want[v.edge_ids] += scale * v.values
        np.testing.assert_allclose(dense, want, atol=1e-12)


class TestMetricProperties:
    @settings(max_examples=40, deadline=None)
    @given(mu=measures(), nu=measures(), sg=measures())
    def test_axioms_all_orders(self, mu, nu, sg):
        for p in (1.0, 1.7, 2.0, 3.0, math.inf):
            d12 = measure_distance(RS, PREP, mu, nu, p)
            assert d12 >= 0.0
            assert d12 == measure_distance(RS, PREP, nu, mu, p)
            assert measure_distance(RS, PREP, mu, mu, p) == 0.0
            d13 = measure_distance(RS, PREP, mu, sg, p)
            d23 = measure_distance(RS, PREP, nu, sg, p)
            assert d13 <= d12 + d23 + 1e-9 * max(d13, d12 + d23, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(mu=measures(), nu=measures(), p=orders)
    def test_transport_sandwich(self, mu, nu, p):
        u, v = gamma_mass(RS, mu), gamma_mass(RS, nu)
        s = sobolev_ipm_distance(PREP, u, v, p)
        stv = sobolev_transport_distance(PREP, u, v, p)
        slack = 1e-9 * max(stv, 1.0)
        assert (1.0 + TOTAL) ** ((1.0 - p) / p) * stv <= s + slack
        assert s <= stv + slack

    @settings(max_examples=40, deadline=None)
    @given(
        mu=measures(),
        nu=measures(),
        pq=st.tuples(orders, orders).map(sorted),
    )
    def test_order_comparison(self, mu, nu, pq):
        p, q = pq
        u, v = gamma_mass(RS, mu), gamma_mass(RS, nu)
        sp = sobolev_ipm_distance(PREP, u, v, p)
        sq = sobolev_ipm_distance(PREP, u, v, q)
        fac = (TOTAL * (1.0 + TOTAL)) ** (1.0 / p - 1.0 / q)
        assert sp <= fac * sq + 1e-9 * max(sp, fac * sq, 1.0)
