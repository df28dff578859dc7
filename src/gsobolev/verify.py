"""Seeded property suites: metric axioms, sandwich bounds, tree equality,
kernel definiteness, and oracle agreement.

Each suite draws its own instance pool from a master seed, counts violations
at pinned tolerances, and returns a machine-readable report.  The CLI's
``verify`` command is a thin wrapper; the acceptance tests call the same
functions with the documented pool sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
from .measures import DiscreteMeasure, gamma_mass, gamma_masses
from .metrics import (
    VARIANT_SOBOLEV_IPM,
    VARIANT_SOBOLEV_TRANSPORT,
    beta_weights,
    measure_distance,
    prepare_root,
    sample_roots,
    sliced_distance,
    sobolev_ipm_distance,
    sobolev_transport_distance,
)
from .oracles import beta_quadrature, distance_by_discretization, wasserstein1_lp
from .synth import FAMILY_LOG, PointCloud, build_random_graph, random_measures, random_tree

REL_SLACK = 1e-9


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
            "checks": [
                {
                    "name": c.name,
                    "instances": c.instances,
                    "violations": c.violations,
                    "worst": c.worst,
                    "passed": c.passed,
                }
                for c in self.checks
            ],
        }


def _child_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63 - 1))


def _pool_graph(rng: np.random.Generator, max_nodes: int = 40) -> Graph:
    n = int(rng.integers(8, max_nodes + 1))
    pts = PointCloud(rng.random((n, 2)))
    return build_random_graph(pts, FAMILY_LOG, seed=_child_seed(rng))


def _pool_measures(rng: np.random.Generator, g: Graph, count: int) -> list[DiscreteMeasure]:
    size = int(rng.integers(1, min(8, g.node_count) + 1))
    return random_measures(g, count, size, seed=_child_seed(rng))


def _canonical(mu: DiscreteMeasure) -> tuple:
    return tuple(sorted(zip(mu.nodes, mu.masses)))


def metric_suite(
    seed: int = 0,
    triples: int = 500,
    ps: tuple = (1.0, 1.5, 2.0, 3.0, math.inf),
    sliced_triples: int = 60,
    rel_slack: float = REL_SLACK,
) -> SuiteReport:
    """Metric axioms (identity, positivity, symmetry, triangle) for every
    order in ``ps``, plus the same axioms for the root-averaged variant."""
    rng = np.random.default_rng(seed)
    report = SuiteReport("metric", seed)
    graphs = max(1, triples // 25)
    per_graph = math.ceil(triples / graphs)

    counts = {p: [0, 0, 0.0] for p in ps}  # instances, violations, worst gap
    done = 0
    for _ in range(graphs):
        g = _pool_graph(rng)
        rs, prep = prepare_root(g, int(rng.integers(g.node_count)))
        pool = _pool_measures(rng, g, 10)
        for _ in range(per_graph):
            if done >= triples:
                break
            mu, nu, sg = (pool[int(i)] for i in rng.integers(0, len(pool), size=3))
            done += 1
            for p in ps:
                d12 = measure_distance(rs, prep, mu, nu, p)
                d21 = measure_distance(rs, prep, nu, mu, p)
                d13 = measure_distance(rs, prep, mu, sg, p)
                d23 = measure_distance(rs, prep, nu, sg, p)
                dself = measure_distance(rs, prep, mu, mu, p)
                c = counts[p]
                c[0] += 1
                bad = (
                    dself != 0.0
                    or d12 != d21
                    or d12 < 0.0
                    or (_canonical(mu) != _canonical(nu) and d12 == 0.0)
                )
                gap = d13 - (d12 + d23) - rel_slack * max(d12 + d23, d13)
                c[2] = max(c[2], gap)
                if bad or gap > 0.0:
                    c[1] += 1
    for p in ps:
        inst, bad, worst = counts[p]
        report.checks.append(
            SuiteCheck(f"axioms_p={p}", inst, bad, worst, bad == 0)
        )

    # Root-averaged distances satisfy the same axioms.
    bad = 0
    worst = 0.0
    g = _pool_graph(rng)
    roots = sample_roots(g, min(3, g.node_count), _child_seed(rng))
    prepared: dict = {}
    pool = _pool_measures(rng, g, 10)
    for _ in range(sliced_triples):
        mu, nu, sg = (pool[int(i)] for i in rng.integers(0, len(pool), size=3))
        for p in (1.0, 2.0):
            d12 = sliced_distance(g, roots, mu, nu, p, prepared=prepared)
            d21 = sliced_distance(g, roots, nu, mu, p, prepared=prepared)
            d13 = sliced_distance(g, roots, mu, sg, p, prepared=prepared)
            d23 = sliced_distance(g, roots, nu, sg, p, prepared=prepared)
            dself = sliced_distance(g, roots, mu, mu, p, prepared=prepared)
            gap = d13 - (d12 + d23) - rel_slack * max(d12 + d23, d13)
            worst = max(worst, gap)
            if dself != 0.0 or d12 != d21 or gap > 0.0:
                bad += 1
    report.checks.append(
        SuiteCheck("axioms_sliced", sliced_triples * 2, bad, worst, bad == 0)
    )
    return report


def bounds_suite(
    seed: int = 0,
    pairs: int = 500,
    ps: tuple = (1.0, 1.5, 2.0, 3.0),
    trees: int = 50,
    rel_slack: float = REL_SLACK,
) -> SuiteReport:
    """Two-sided transport sandwich, cross-order comparison, and the
    lower bound against exact 1-Wasserstein."""
    rng = np.random.default_rng(seed)
    report = SuiteReport("bounds", seed)
    graphs = max(1, pairs // 25)
    per_graph = math.ceil(pairs / graphs)

    sandwich_v, sandwich_n, sandwich_w = 0, 0, 0.0
    order_v, order_n, order_w = 0, 0, 0.0
    done = 0
    for _ in range(graphs):
        g = _pool_graph(rng)
        L = g.total_length
        rs, prep = prepare_root(g, int(rng.integers(g.node_count)))
        pool = _pool_measures(rng, g, 8)
        for _ in range(per_graph):
            if done >= pairs:
                break
            mu, nu = (pool[int(i)] for i in rng.integers(0, len(pool), size=2))
            done += 1
            u, v = gamma_mass(rs, mu), gamma_mass(rs, nu)
            svals = {p: sobolev_ipm_distance(prep, u, v, p) for p in ps}
            for p in ps:
                st = sobolev_transport_distance(prep, u, v, p)
                s = svals[p]
                lo = (1.0 + L) ** ((1.0 - p) / p) * st
                tol = rel_slack * max(st, s, 1.0)
                sandwich_n += 1
                gap = max(lo - s, s - st)
                sandwich_w = max(sandwich_w, gap)
                if gap > tol:
                    sandwich_v += 1
            for i, p in enumerate(ps):
                for q in ps[i + 1 :]:
                    fac = (L * (1.0 + L)) ** (1.0 / p - 1.0 / q)
                    order_n += 1
                    gap = svals[p] - fac * svals[q]
                    tol = rel_slack * max(svals[p], fac * svals[q], 1.0)
                    order_w = max(order_w, gap)
                    if gap > tol:
                        order_v += 1
    report.checks.append(
        SuiteCheck("transport_sandwich", sandwich_n, sandwich_v, sandwich_w, sandwich_v == 0)
    )
    report.checks.append(
        SuiteCheck("order_comparison", order_n, order_v, order_w, order_v == 0)
    )

    # Lower bound against the exact LP distance, on trees (where the
    # order-1 distance coincides with 1-Wasserstein) and with the same
    # factor on general graphs.
    w1_v, w1_n, w1_w = 0, 0, 0.0
    for k in range(trees):
        if k % 2 == 0:
            g = random_tree(int(rng.integers(5, 60)), seed=_child_seed(rng))
        else:
            g = _pool_graph(rng, max_nodes=25)
        L = g.total_length
        rs, prep = prepare_root(g, int(rng.integers(g.node_count)))
        mu, nu = _pool_measures(rng, g, 2)
        w1 = wasserstein1_lp(g, mu, nu)
        u, v = gamma_mass(rs, mu), gamma_mass(rs, nu)
        for p in ps:
            s = sobolev_ipm_distance(prep, u, v, p)
            bound = (L * (1.0 + L)) ** ((1.0 - p) / p) * w1
            w1_n += 1
            gap = bound - s
            tol = rel_slack * max(s, bound, 1.0)
            w1_w = max(w1_w, gap)
            if gap > tol:
                w1_v += 1
    report.checks.append(
        SuiteCheck("wasserstein_lower_bound", w1_n, w1_v, w1_w, w1_v == 0)
    )
    return report


def tree_suite(
    seed: int = 0,
    trees: int = 50,
    max_nodes: int = 100,
    max_support: int = 20,
    tol: float = 1e-8,
) -> SuiteReport:
    """On trees the order-1 distance equals 1-Wasserstein exactly."""
    rng = np.random.default_rng(seed)
    report = SuiteReport("tree", seed)
    worst = 0.0
    bad = 0
    for _ in range(trees):
        n = int(rng.integers(5, max_nodes + 1))
        g = random_tree(n, seed=_child_seed(rng))
        size = int(rng.integers(1, min(max_support, n) + 1))
        mu, nu = random_measures(g, 2, size, seed=_child_seed(rng))
        rs, prep = prepare_root(g, int(rng.integers(n)))
        u, v = gamma_mass(rs, mu), gamma_mass(rs, nu)
        s1 = sobolev_ipm_distance(prep, u, v, 1.0)
        w1 = wasserstein1_lp(g, mu, nu)
        err = abs(s1 - w1)
        worst = max(worst, err)
        if err >= tol:
            bad += 1
    report.checks.append(SuiteCheck("w1_equality", trees, bad, worst, bad == 0))
    return report


def definiteness_suite(
    seed: int = 0,
    sets: int = 20,
    set_size: int = 30,
    ps: tuple = (1.0, 1.5, 2.0),
    bandwidths: tuple = (0.1, 1.0, 10.0),
    roots: tuple = (2, 5, 10),
    trials: int = 200,
) -> SuiteReport:
    """Negative definiteness of distance matrices, positive semidefiniteness
    of the exponential kernels, and entrywise-root divisibility."""
    rng = np.random.default_rng(seed)
    report = SuiteReport("definiteness", seed)
    nd_bad, nd_n, nd_worst = 0, 0, 0.0
    psd_bad, psd_n, psd_worst = 0, 0, 0.0
    div_bad, div_n = 0, 0
    for _ in range(sets):
        g = _pool_graph(rng)
        rs, prep = prepare_root(g, int(rng.integers(g.node_count)))
        pool = _pool_measures(rng, g, set_size)
        vecs = gamma_masses(rs, pool)
        for p in ps:
            D = distance_matrix(prep, vecs, p)
            rep = check_negative_definite(D, p, trials=trials, seed=_child_seed(rng))
            nd_n += 1
            nd_worst = max(nd_worst, -rep.spectral_min, rep.worst)
            if not rep.passed:
                nd_bad += 1
            for t in bandwidths:
                for form in (KERNEL_EXP, KERNEL_EXP_POW):
                    K = gram_matrix(D, GramSpec(p=p, t=t, form=form))
                    lo = min_eigenvalue(K)
                    psd_n += 1
                    psd_worst = max(psd_worst, -lo)
                    if lo < -1e-8 * K.max():
                        psd_bad += 1
                    for nroot in roots:
                        div_n += 1
                        if not divisibility_check(K, nroot):
                            div_bad += 1
    report.checks.append(
        SuiteCheck("negative_definite", nd_n, nd_bad, nd_worst, nd_bad == 0)
    )
    report.checks.append(
        SuiteCheck("gram_psd", psd_n, psd_bad, psd_worst, psd_bad == 0)
    )
    report.checks.append(
        SuiteCheck("entrywise_roots_psd", div_n, div_bad, 0.0, div_bad == 0)
    )
    return report


def oracle_suite(
    seed: int = 0,
    beta_triples: int = 200,
    disc_graphs: int = 20,
    disc_ps: tuple = (1.0, 1.5, 2.0),
    resolution: int = 100_000,
    tree_triples: int = 10,
    tol_beta: float = 1e-8,
    tol_disc: float = 1e-4,
    tol_triple: float = 1e-6,
) -> SuiteReport:
    """Agreement between the closed forms and the slow references."""
    rng = np.random.default_rng(seed)
    report = SuiteReport("oracle", seed)

    worst = 0.0
    bad = 0
    for _ in range(beta_triples):
        lam = float(rng.uniform(0.0, 20.0))
        w = float(rng.uniform(0.05, 5.0))
        p = float(rng.uniform(1.0, 4.0))
        prep = EdgePrep(
            root=0,
            lambda_gamma=np.array([lam]),
            total_length=w,
            edge_lengths=np.array([w]),
        )
        closed = float(beta_weights(prep, p)[0])
        ref = beta_quadrature(lam, w, p, steps=10_000)
        rel = abs(closed - ref) / abs(ref)
        worst = max(worst, rel)
        if rel >= tol_beta:
            bad += 1
    report.checks.append(
        SuiteCheck("beta_vs_quadrature", beta_triples, bad, worst, bad == 0)
    )

    worst = 0.0
    bad = 0
    inst = 0
    for _ in range(disc_graphs):
        g = _pool_graph(rng, max_nodes=30)
        root = int(rng.integers(g.node_count))
        mu, nu = _pool_measures(rng, g, 2)
        rs, prep = prepare_root(g, root)
        u, v = gamma_mass(rs, mu), gamma_mass(rs, nu)
        for p in disc_ps:
            inst += 1
            closed_pow = sobolev_ipm_distance(prep, u, v, p) ** p
            ref = distance_by_discretization(g, root, mu, nu, p, resolution)
            err = abs(closed_pow - ref)
            worst = max(worst, err)
            if err >= tol_disc:
                bad += 1
    report.checks.append(
        SuiteCheck("integral_discretization", inst, bad, worst, bad == 0)
    )

    worst = 0.0
    bad = 0
    for _ in range(tree_triples):
        g = random_tree(int(rng.integers(5, 40)), seed=_child_seed(rng))
        root = int(rng.integers(g.node_count))
        mu, nu = _pool_measures(rng, g, 2)
        rs, prep = prepare_root(g, root)
        u, v = gamma_mass(rs, mu), gamma_mass(rs, nu)
        s1 = sobolev_ipm_distance(prep, u, v, 1.0)
        w1 = wasserstein1_lp(g, mu, nu)
        disc = distance_by_discretization(g, root, mu, nu, 1.0, resolution=2000)
        err = max(abs(s1 - w1), abs(s1 - disc), abs(w1 - disc))
        worst = max(worst, err)
        if err >= tol_triple:
            bad += 1
    report.checks.append(
        SuiteCheck("order1_triple_agreement", tree_triples, bad, worst, bad == 0)
    )
    return report


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
