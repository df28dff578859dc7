"""Acceptance gate: one pass/fail record per shipped guarantee.

Each test prints an ``ACCEPTANCE n PASS/FAIL`` line through the recorder
fixture (collected again in the terminal summary), then asserts.  Tolerances
and pool sizes are pinned here and nowhere else.
"""

from __future__ import annotations

import math
import time
from functools import partial

import numpy as np
import pytest

from gsobolev import (
    FAMILY_LOG,
    FAMILY_SQRT,
    PointCloud,
    beta_weights,
    build_random_graph,
    gamma_mass,
    measure_distance,
    prepare_root,
    random_measures,
    sample_roots,
    sliced_distance,
    sobolev_ipm_distance,
    wasserstein1_lp,
)
from gsobolev.verify import (
    check_axioms,
    check_beta,
    check_bounds,
    check_discretization,
    check_w1_lower_bound,
    definiteness_suite,
    tree_suite,
)

REL_SLACK = 1e-9
FINITE_ORDERS = (1.0, 1.5, 2.0, 3.0)
ALL_ORDERS = (1.0, 1.5, 2.0, 3.0, math.inf)


def sample_index_pairs(rng, n: int, count: int) -> list[tuple[int, int]]:
    draws = rng.integers(0, n, size=(3 * count, 2))
    pairs = [(int(a), int(b)) for a, b in draws if a != b]
    return pairs[:count]


def min_total_seconds(fn, repeats: int = 3) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="session")
def shared_pool():
    """Twenty prepared graphs, ten measures and 25 index triples each;
    the axiom and bound checks read the same instances."""
    rng = np.random.default_rng(404)
    out = []
    for _ in range(20):
        n = int(rng.integers(8, 41))
        g = build_random_graph(
            PointCloud(rng.random((n, 2))), FAMILY_LOG, seed=int(rng.integers(2**31))
        )
        rs, prep = prepare_root(g, int(rng.integers(g.node_count)))
        size = int(rng.integers(1, min(8, g.node_count) + 1))
        pool = random_measures(g, 10, size, seed=int(rng.integers(2**31)))
        triples = [
            tuple(int(x) for x in rng.integers(0, len(pool), size=3))
            for _ in range(25)
        ]
        out.append((g, rs, prep, pool, triples))
    return out


@pytest.fixture(scope="session")
def scale_instances():
    """Sparse thousand-node and dense ten-thousand-node ambient graphs."""
    rng = np.random.default_rng(707)
    small = build_random_graph(PointCloud(rng.random((1000, 2))), FAMILY_LOG, seed=7)
    big = build_random_graph(PointCloud(rng.random((10_000, 2))), FAMILY_SQRT, seed=7)
    return small, big


def test_criterion_1_edge_weight_oracle(acceptance):
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    triples = [
        (rng.uniform(0.0, 20.0), rng.uniform(0.05, 5.0), rng.uniform(1.0, 4.0))
        for _ in range(200)
    ]
    chk = check_beta(triples, tol=1e-8)
    elapsed = time.perf_counter() - t0
    ok = chk.passed and elapsed < 1.0
    acceptance(
        1,
        f"closed-form edge weights match 1e4-step quadrature over 200 "
        f"triples (worst rel {chk.worst:.2e} < 1e-8, {elapsed:.2f} s < 1 s)",
        ok,
    )
    assert chk.passed, chk
    assert elapsed < 1.0


def test_criterion_2_integral_discretization(acceptance):
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    cases = []
    for _ in range(20):
        n = int(rng.integers(8, 31))
        g = build_random_graph(
            PointCloud(rng.random((n, 2))), FAMILY_LOG, seed=int(rng.integers(2**31))
        )
        root = int(rng.integers(g.node_count))
        size = int(rng.integers(1, min(6, g.node_count) + 1))
        mu, nu = random_measures(g, 2, size, seed=int(rng.integers(2**31)))
        cases.append((g, *prepare_root(g, root), mu, nu))
    chk = check_discretization(cases, (1.0, 1.5, 2.0), resolution=100_000, tol=1e-4)
    elapsed = time.perf_counter() - t0
    ok = chk.passed and elapsed < 120.0
    acceptance(
        2,
        f"p-th powers match direct 1e5-point discretization on 20 graphs "
        f"(worst abs {chk.worst:.2e} < 1e-4, {elapsed:.1f} s < 120 s)",
        ok,
    )
    assert chk.passed, chk
    assert elapsed < 120.0


def test_criterion_3_tree_equality(acceptance):
    t0 = time.perf_counter()
    rep = tree_suite(seed=303, trees=50, max_nodes=100, max_support=20, tol=1e-8)
    elapsed = time.perf_counter() - t0
    chk = rep.checks[0]
    ok = rep.passed and elapsed < 30.0
    acceptance(
        3,
        f"order-1 distance equals LP 1-Wasserstein on 50 trees "
        f"(worst {chk.worst:.2e} < 1e-8, {elapsed:.1f} s < 30 s)",
        ok,
    )
    assert rep.passed, chk
    assert elapsed < 30.0


def test_criterion_4_metric_axioms(acceptance, shared_pool):
    cases = [
        (partial(measure_distance, rs, prep), pool, triples)
        for _, rs, prep, pool, triples in shared_pool
    ]
    checks = check_axioms(cases, ALL_ORDERS, REL_SLACK)
    violations = sum(c.violations for c in checks)
    checked = sum(c.instances for c in checks)
    ok = violations == 0 and checked == 500 * len(ALL_ORDERS)
    acceptance(
        4,
        f"identity/symmetry/positivity/triangle hold on 500 triples x "
        f"{len(ALL_ORDERS)} orders ({violations} violations)",
        ok,
    )
    assert ok


def test_criterion_5_sandwich_and_comparison_bounds(acceptance, shared_pool):
    sandwich, order = check_bounds(
        [(rs, prep, pool, triples) for _, rs, prep, pool, triples in shared_pool],
        FINITE_ORDERS,
        REL_SLACK,
    )
    lower = check_w1_lower_bound(
        [
            (g, rs, prep, pool[i], pool[j])
            for g, rs, prep, pool, triples in shared_pool
            for i, j, _ in triples
        ],
        FINITE_ORDERS,
        REL_SLACK,
    )
    sandwich_bad, order_bad, lower_bad = (c.violations for c in (sandwich, order, lower))
    ok = sandwich_bad == 0 and order_bad == 0 and lower_bad == 0
    acceptance(
        5,
        f"transport sandwich / cross-order comparison / 1-Wasserstein lower "
        f"bound hold on the same pool ({sandwich_bad}/{order_bad}/{lower_bad} "
        f"violations)",
        ok,
    )
    assert ok


def test_criterion_6_definiteness(acceptance):
    rep = definiteness_suite(
        seed=606,
        sets=20,
        set_size=30,
        ps=(1.0, 1.5, 2.0),
        bandwidths=(0.1, 1.0, 10.0),
        roots=(2, 5, 10),
        trials=200,
    )
    by_name = {c.name: c for c in rep.checks}
    ok = rep.passed
    acceptance(
        6,
        f"20 sets x 30 measures: spectral negative definiteness, kernel "
        f"eigenvalue floors, and entrywise-root divisibility all pass "
        f"({by_name['negative_definite'].violations}/"
        f"{by_name['gram_psd'].violations}/"
        f"{by_name['entrywise_roots_psd'].violations} violations)",
        ok,
    )
    assert ok, rep.checks


def test_criterion_7_ambient_size_independence(acceptance, scale_instances):
    g_small, g_big = scale_instances
    edge_growth = g_big.edge_count / g_small.edge_count

    sides = {}
    for name, g, seed in (("small", g_small, 71), ("big", g_big, 72)):
        rs, prep = prepare_root(g, 0)
        beta_weights(prep, 2.0)
        ms = random_measures(g, 40, 5, seed=seed)
        vecs = [gamma_mass(rs, mu) for mu in ms]
        pairs = sample_index_pairs(np.random.default_rng(seed), 40, 300)
        sides[name] = (rs, prep, ms, vecs, pairs)

    def run(name):
        _, prep, _, vecs, pairs = sides[name]
        for i, j in pairs:
            sobolev_ipm_distance(prep, vecs[i], vecs[j], 2.0)

    # each timed loop lasts a few ms; alternating the sides over many
    # repeats keeps a host stall from landing on one side's repeats only
    best = {name: math.inf for name in sides}
    for _ in range(9):
        for name in sides:
            best[name] = min(best[name], min_total_seconds(partial(run, name), repeats=1))
    times = {name: best[name] / len(sides[name][4]) for name in sides}

    # per-root preprocessing artifacts are cached, never rebuilt per pair
    cache_ok = all(
        beta_weights(prep, 2.0) is beta_weights(prep, 2.0) and gamma_mass(rs, ms[0]) is vecs[0]
        for rs, prep, ms, vecs, _ in sides.values()
    )
    growth = times["big"] / times["small"]
    ok = edge_growth > 10.0 and growth < 2.0 and cache_ok
    acceptance(
        7,
        f"per-pair time grows {growth:.2f}x (< 2x) while the ambient graph "
        f"grows {edge_growth:.0f}x in edges; per-root preprocessing cached",
        ok,
    )
    assert edge_growth > 10.0
    assert growth < 2.0, times
    assert cache_ok


def test_criterion_8_speed_against_lp(acceptance, scale_instances):
    g, _ = scale_instances
    ms = random_measures(g, 100, 10, seed=808)
    rs, prep = prepare_root(g, 0)
    beta_weights(prep, 2.0)
    vecs = [gamma_mass(rs, mu) for mu in ms]
    pairs = sample_index_pairs(np.random.default_rng(808), 100, 400)

    def closed():
        for i, j in pairs:
            sobolev_ipm_distance(prep, vecs[i], vecs[j], 2.0)

    t_closed = min_total_seconds(closed) / len(pairs)

    lp_pairs = pairs[:15]
    t0 = time.perf_counter()
    for i, j in lp_pairs:
        wasserstein1_lp(g, ms[i], ms[j])
    t_lp = (time.perf_counter() - t0) / len(lp_pairs)

    ratio = t_lp / t_closed
    ok = ratio >= 100.0
    acceptance(
        8,
        f"closed form is {ratio:.0f}x faster per pair than the LP oracle "
        f"on 100 measures with 10-point supports (>= 100x)",
        ok,
    )
    assert ratio >= 100.0, (t_closed, t_lp)


def test_criterion_9_root_averaging(acceptance):
    g = build_random_graph(
        PointCloud(np.random.default_rng(909).random((300, 2))), FAMILY_LOG, seed=9
    )
    ms = random_measures(g, 30, 5, seed=99)
    pairs = sample_index_pairs(np.random.default_rng(91), 30, 300)
    K = 4
    roots = sample_roots(g, K, seed=9)

    def run(root_list):
        prepared: dict = {}
        for i, j in pairs:
            sliced_distance(g, root_list, ms[i], ms[j], 2.0, prepared=prepared)

    t_single = min_total_seconds(lambda: run([roots[0]]))
    t_sliced = min_total_seconds(lambda: run(roots))
    # K preparations plus K-fold evaluation, with a scheduler-noise margin
    within_budget = t_sliced <= 1.25 * K * t_single

    rng = np.random.default_rng(919)
    triples = [tuple(int(x) for x in rng.integers(0, 10, size=3)) for _ in range(60)]
    sliced = partial(sliced_distance, g, roots, prepared={})
    checks = check_axioms([(sliced, ms, triples)], (1.0, 2.0), REL_SLACK)
    violations = sum(c.violations for c in checks)
    metric_ok = violations == 0

    ok = within_budget and metric_ok
    acceptance(
        9,
        f"averaging over {K} roots costs {t_sliced / t_single:.2f}x one root "
        f"(budget {K}x + margin) and stays a metric ({violations} violations)",
        ok,
    )
    assert within_budget, (t_single, t_sliced)
    assert metric_ok
