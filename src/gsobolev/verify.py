"""Seeded property suites: metric axioms, sandwich bounds, tree equality,
kernel definiteness, and oracle agreement.

Each suite takes only a master seed.  It draws its instance pool from the
seed, hands it to checkers that count violations, and returns a
machine-readable report.  Every tolerance, order list and pool size is
pinned here, as a constant or a literal, and nowhere else: the CLI's
``verify`` command is a thin wrapper, and the acceptance tests call the same
suites, or the same checkers on instances they draw themselves, and assert
the pinned values they rely on.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from .graph import EdgePrep, Graph
from .kernels import (
    GramSpec,
    KERNEL_EXP,
    KERNEL_EXP_POW,
    check_negative_definite,
    distance_matrix,
    divisibility_check,
    gram_matrix,
    min_eigenvalue,
)
from .measures import DiscreteMeasure, gamma_masses
from .metrics import (
    VARIANT_SOBOLEV_TRANSPORT,
    beta_weights,
    measure_distance,
    prepare_root,
    sample_roots,
    sliced_distance,
)
from .oracles import beta_quadrature, distance_by_discretization, wasserstein1_lp
from .synth import FAMILY_LOG, PointCloud, build_random_graph, random_measures, random_tree

# Pinned tolerances.
REL_SLACK = 1e-9  # metric axioms and every bound, relative
BETA_RTOL = 1e-8  # closed-form edge weight against quadrature, relative
DISC_ATOL = 1e-4  # S_p ** p against the discretized integral, absolute
TREE_ATOL = 1e-8  # order-1 distance against LP 1-Wasserstein on trees, absolute
PSD_RTOL = 1e-8  # smallest Gram eigenvalue against the largest entry

ALL_ORDERS = (1.0, 1.5, 2.0, 3.0, math.inf)
FINITE_ORDERS = ALL_ORDERS[:-1]
# 1 <= p <= 2, where the distance is negative definite.
KERNEL_ORDERS = (1.0, 1.5, 2.0)


@dataclass(frozen=True)
class SuiteCheck:
    name: str
    instances: int
    violations: int
    worst: float
    passed: bool


@dataclass
class SuiteReport:
    suite: str
    seed: int
    checks: list[SuiteCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
        }


@dataclass
class _Tally:
    """Instances, violations and the largest measured value of one check."""

    instances: int = 0
    violations: int = 0
    worst: float = 0.0

    def add(self, value: float, bad: bool) -> None:
        self.instances += 1
        self.violations += int(bad)
        self.worst = max(self.worst, value)

    def check(self, name: str) -> SuiteCheck:
        return SuiteCheck(name, self.instances, self.violations, self.worst, self.violations == 0)


def _canonical(mu: DiscreteMeasure) -> tuple:
    return tuple(sorted(zip(mu.nodes, mu.masses)))


# -- checkers: count violations on prepared instances ------------------------


def check_axioms(cases: list, ps: tuple) -> list[SuiteCheck]:
    """Metric axioms for every order in ``ps``: identity, symmetry,
    positivity, distinct measures at nonzero distance, and the triangle
    inequality within ``REL_SLACK``.

    Each case is ``(distance, pool, triples)``: a callable
    ``distance(mu, nu, p)``, a measure list, and index triples into it.
    One check per order, named ``axioms_p={p}``; its worst value is the
    largest triangle gap.
    """
    tallies = {p: _Tally() for p in ps}
    for distance, pool, triples in cases:
        for i, j, k in triples:
            mu, nu, sg = pool[i], pool[j], pool[k]
            for p in ps:
                d12 = distance(mu, nu, p)
                d21 = distance(nu, mu, p)
                d13 = distance(mu, sg, p)
                d23 = distance(nu, sg, p)
                dself = distance(mu, mu, p)
                bad = (
                    dself != 0.0
                    or d12 != d21
                    or d12 < 0.0
                    or (_canonical(mu) != _canonical(nu) and d12 == 0.0)
                )
                gap = d13 - (d12 + d23) - REL_SLACK * max(d12 + d23, d13)
                tallies[p].add(gap, bad or gap > 0.0)
    return [tallies[p].check(f"axioms_p={p}") for p in ps]


def check_bounds(cases: list) -> tuple[SuiteCheck, SuiteCheck]:
    """Transport sandwich ``(1 + L)^((1-p)/p) ST_p <= S_p <= ST_p`` for
    every order in ``FINITE_ORDERS``, and cross-order comparison
    ``S_p <= (L (1 + L))^(1/p - 1/q) S_q`` for every ``p < q`` among them,
    within ``REL_SLACK``; ``L`` is the graph's total length.

    Each case is ``(rs, prep, pool, tuples)``: a prepared root, a measure
    list, and index tuples whose first two entries name a pair.
    """
    sandwich, order = _Tally(), _Tally()
    for rs, prep, pool, tuples in cases:
        L = rs.graph.total_length
        for i, j, *_ in tuples:
            pair = partial(measure_distance, rs, prep, pool[i], pool[j])
            svals = {p: pair(p) for p in FINITE_ORDERS}
            for p in FINITE_ORDERS:
                st = pair(p, VARIANT_SOBOLEV_TRANSPORT)
                s = svals[p]
                lo = (1.0 + L) ** ((1.0 - p) / p) * st
                gap = max(lo - s, s - st)
                sandwich.add(gap, gap > REL_SLACK * max(st, s, 1.0))
            for a, p in enumerate(FINITE_ORDERS):
                for q in FINITE_ORDERS[a + 1 :]:
                    fac = (L * (1.0 + L)) ** (1.0 / p - 1.0 / q)
                    gap = svals[p] - fac * svals[q]
                    order.add(gap, gap > REL_SLACK * max(svals[p], fac * svals[q], 1.0))
    return sandwich.check("transport_sandwich"), order.check("order_comparison")


def check_w1_lower_bound(cases: list) -> SuiteCheck:
    """``S_p >= (L (1 + L))^((1-p)/p) W_1`` against the exact LP
    1-Wasserstein distance for every order in ``FINITE_ORDERS``, within
    ``REL_SLACK``.  Each case is ``(g, rs, prep, mu, nu)``."""
    tally = _Tally()
    for g, rs, prep, mu, nu in cases:
        L = g.total_length
        w1 = wasserstein1_lp(g, mu, nu)
        for p in FINITE_ORDERS:
            s = measure_distance(rs, prep, mu, nu, p)
            bound = (L * (1.0 + L)) ** ((1.0 - p) / p) * w1
            gap = bound - s
            tally.add(gap, gap > REL_SLACK * max(s, bound, 1.0))
    return tally.check("wasserstein_lower_bound")


def check_beta(triples: list) -> SuiteCheck:
    """Closed-form edge weight against 1e4-step quadrature: relative error
    below ``BETA_RTOL`` for each ``(downstream length, edge length, p)``."""
    tally = _Tally()
    for lam, w, p in triples:
        prep = EdgePrep(root=0, lambda_gamma=np.array([lam]), edge_lengths=np.array([w]))
        closed = float(beta_weights(prep, p)[0])
        ref = beta_quadrature(lam, w, p)
        rel = abs(closed - ref) / abs(ref)
        tally.add(rel, rel >= BETA_RTOL)
    return tally.check("beta_vs_quadrature")


def check_discretization(cases: list) -> SuiteCheck:
    """``S_p ** p`` against the 1e5-point discretization of the defining
    integral, absolute error below ``DISC_ATOL``, for every order in
    ``KERNEL_ORDERS``.  Each case is ``(g, rs, prep, mu, nu)``."""
    tally = _Tally()
    for g, rs, prep, mu, nu in cases:
        for p in KERNEL_ORDERS:
            closed_pow = measure_distance(rs, prep, mu, nu, p) ** p
            ref = distance_by_discretization(g, rs.root, mu, nu, p)
            err = abs(closed_pow - ref)
            tally.add(err, err >= DISC_ATOL)
    return tally.check("integral_discretization")


# -- draws: instances from a seeded generator --------------------------------


def _child_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63 - 1))


def _pool_graph(rng: np.random.Generator, max_nodes: int = 40) -> Graph:
    n = int(rng.integers(8, max_nodes + 1))
    pts = PointCloud(rng.random((n, 2)))
    return build_random_graph(pts, FAMILY_LOG, seed=_child_seed(rng))


def _pool_measures(rng: np.random.Generator, g: Graph, count: int) -> list[DiscreteMeasure]:
    size = int(rng.integers(1, min(8, g.node_count) + 1))
    return random_measures(g, count, size, seed=_child_seed(rng))


def _index_tuples(rng: np.random.Generator, n: int, count: int, arity: int) -> list[tuple]:
    return [tuple(int(i) for i in rng.integers(0, n, size=arity)) for _ in range(count)]


def _pool_cases(rng: np.random.Generator, tuples: int, pool_size: int, arity: int) -> list:
    """``(rs, prep, pool, index tuples)`` on prepared pool graphs, one
    graph per 25 tuples, ``pool_size`` measures each; ``tuples`` in all."""
    graphs = max(1, tuples // 25)
    per_graph = math.ceil(tuples / graphs)
    cases = []
    for _ in range(graphs):
        g = _pool_graph(rng)
        rs, prep = prepare_root(g, int(rng.integers(g.node_count)))
        pool = _pool_measures(rng, g, pool_size)
        count = min(per_graph, tuples)
        tuples -= count
        cases.append((rs, prep, pool, _index_tuples(rng, len(pool), count, arity)))
    return cases


def _two_measures(rng: np.random.Generator, g: Graph) -> tuple:
    """``(g, rs, prep, mu, nu)``: a prepared random root and two measures."""
    rs, prep = prepare_root(g, int(rng.integers(g.node_count)))
    mu, nu = _pool_measures(rng, g, 2)
    return g, rs, prep, mu, nu


def _merged(name: str, checks: list[SuiteCheck]) -> SuiteCheck:
    bad = sum(c.violations for c in checks)
    return SuiteCheck(
        name, sum(c.instances for c in checks), bad, max(c.worst for c in checks), bad == 0
    )


# -- suites ------------------------------------------------------------------


def metric_suite(seed: int = 0) -> SuiteReport:
    """Metric axioms for every order in ``ALL_ORDERS`` on 500 triples, plus
    the same axioms for the root-averaged variant at orders 1 and 2 on 60."""
    rng = np.random.default_rng(seed)
    cases = [
        (partial(measure_distance, rs, prep), pool, idx)
        for rs, prep, pool, idx in _pool_cases(rng, 500, 10, 3)
    ]
    g = _pool_graph(rng)
    roots = sample_roots(g, min(3, g.node_count), _child_seed(rng))
    pool = _pool_measures(rng, g, 10)
    sliced = (
        partial(sliced_distance, g, roots, prepared={}),
        pool,
        _index_tuples(rng, len(pool), 60, 3),
    )
    checks = check_axioms(cases, ALL_ORDERS)
    checks.append(_merged("axioms_sliced", check_axioms([sliced], (1.0, 2.0))))
    return SuiteReport("metric", seed, checks)


def bounds_suite(seed: int = 0) -> SuiteReport:
    """Two-sided transport sandwich and cross-order comparison on 500
    pairs, and the lower bound against exact 1-Wasserstein on 50 graphs,
    trees (where the order-1 distance coincides with 1-Wasserstein) and
    general graphs alike."""
    rng = np.random.default_rng(seed)
    cases = _pool_cases(rng, 500, 8, 2)
    w1_cases = [
        _two_measures(
            rng,
            random_tree(int(rng.integers(5, 60)), seed=_child_seed(rng))
            if k % 2 == 0
            else _pool_graph(rng, max_nodes=25),
        )
        for k in range(50)
    ]
    return SuiteReport("bounds", seed, [*check_bounds(cases), check_w1_lower_bound(w1_cases)])


def tree_suite(seed: int = 0) -> SuiteReport:
    """On 50 trees of 5 to 100 nodes, with supports of up to 20 points, the
    order-1 distance equals 1-Wasserstein within ``TREE_ATOL``."""
    rng = np.random.default_rng(seed)
    tally = _Tally()
    for _ in range(50):
        n = int(rng.integers(5, 101))
        g = random_tree(n, seed=_child_seed(rng))
        size = int(rng.integers(1, min(20, n) + 1))
        mu, nu = random_measures(g, 2, size, seed=_child_seed(rng))
        rs, prep = prepare_root(g, int(rng.integers(n)))
        err = abs(measure_distance(rs, prep, mu, nu, 1.0) - wasserstein1_lp(g, mu, nu))
        tally.add(err, err >= TREE_ATOL)
    return SuiteReport("tree", seed, [tally.check("w1_equality")])


def definiteness_suite(seed: int = 0) -> SuiteReport:
    """On 20 sets of 30 measures, for every order in ``KERNEL_ORDERS``:
    negative definiteness of the distance matrix, positive semidefiniteness
    of both exponential kernels at bandwidths 0.1, 1 and 10, and
    divisibility by entrywise roots 2, 5 and 10."""
    rng = np.random.default_rng(seed)
    nd, psd, div = _Tally(), _Tally(), _Tally()
    for _ in range(20):
        g = _pool_graph(rng)
        rs, prep = prepare_root(g, int(rng.integers(g.node_count)))
        table = gamma_masses(rs, _pool_measures(rng, g, 30))
        for p in KERNEL_ORDERS:
            D = distance_matrix(prep, table, p)
            rep = check_negative_definite(D, seed=_child_seed(rng))
            nd.add(max(-rep.spectral_min, rep.worst), not rep.passed)
            for t in (0.1, 1.0, 10.0):
                for form in (KERNEL_EXP, KERNEL_EXP_POW):
                    K = gram_matrix(D, GramSpec(p=p, t=t, form=form))
                    lo = min_eigenvalue(K)
                    psd.add(-lo, lo < -PSD_RTOL * K.max())
                    for nroot in (2, 5, 10):
                        div.add(0.0, not divisibility_check(K, nroot))
    return SuiteReport(
        "definiteness",
        seed,
        [nd.check("negative_definite"), psd.check("gram_psd"), div.check("entrywise_roots_psd")],
    )


def oracle_suite(seed: int = 0) -> SuiteReport:
    """Agreement between the closed forms and the slow references: edge
    weights on 200 triples, the integral on 20 graphs, and the order-1
    distance, LP 1-Wasserstein and a 2000-point discretization within 1e-6
    of each other on 10 trees."""
    rng = np.random.default_rng(seed)
    triples = [
        (rng.uniform(0.0, 20.0), rng.uniform(0.05, 5.0), rng.uniform(1.0, 4.0))
        for _ in range(200)
    ]
    disc = [_two_measures(rng, _pool_graph(rng, max_nodes=30)) for _ in range(20)]
    tree_cases = [
        _two_measures(rng, random_tree(int(rng.integers(5, 40)), seed=_child_seed(rng)))
        for _ in range(10)
    ]
    agree = _Tally()
    for g, rs, prep, mu, nu in tree_cases:
        s1 = measure_distance(rs, prep, mu, nu, 1.0)
        w1 = wasserstein1_lp(g, mu, nu)
        d = distance_by_discretization(g, rs.root, mu, nu, 1.0, resolution=2000)
        err = max(abs(s1 - w1), abs(s1 - d), abs(w1 - d))
        agree.add(err, err >= 1e-6)
    return SuiteReport(
        "oracle",
        seed,
        [check_beta(triples), check_discretization(disc), agree.check("order1_triple_agreement")],
    )


SUITES = {
    "metric": metric_suite,
    "bounds": bounds_suite,
    "tree": tree_suite,
    "definiteness": definiteness_suite,
    "oracle": oracle_suite,
}


def run_suites(names: list[str], seed: int = 0) -> list[SuiteReport]:
    """Run the named suites (or all of them) off one master seed."""
    picked = list(SUITES) if "all" in names else names
    for name in picked:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; pick from {sorted(SUITES)}")
    return [SUITES[name](seed=seed) for name in picked]
