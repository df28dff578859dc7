"""Distance matrices, exponential kernels, and definiteness diagnostics."""

from __future__ import annotations

import math
import threading
from pathlib import Path

import numpy as np
import pytest

from gsobolev import (
    DiscreteMeasure,
    GramSpec,
    InvalidBandwidth,
    InvalidExponent,
    KERNEL_EXP,
    KERNEL_EXP_POW,
    NonConvergence,
    NonPositiveEntry,
    RootMismatch,
    VARIANT_SOBOLEV_IPM,
    VARIANT_SOBOLEV_TRANSPORT,
    check_negative_definite,
    distance_matrix,
    divisibility_check,
    gamma_masses,
    gram_matrix,
    measure_distance,
    min_eigenvalue,
    pair_distances,
    prepare_root,
    random_measures,
    write_matrix_csv,
)
from gsobolev import metrics
from gsobolev.kernels import quadratic_form_violations
from conftest import random_weighted_graph, read_matrix_csv


@pytest.fixture()
def path_triple(path_graph):
    """Prep and the cumulative-vector table of the three diracs on the unit path."""
    rs, prep = prepare_root(path_graph, 0)
    return rs, prep, gamma_masses(rs, [DiscreteMeasure.dirac(k) for k in range(3)])


class TestDistanceMatrix:
    def test_pinned_order_one(self, path_triple):
        _, prep, table = path_triple
        D = distance_matrix(prep, table, 1.0)
        np.testing.assert_array_equal(
            D, [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]
        )

    def test_pinned_order_two(self, path_triple):
        _, prep, table = path_triple
        D = distance_matrix(prep, table, 2.0)
        assert D[0, 1] == pytest.approx(0.6367614216550531, rel=1e-15)
        assert D[0, 2] == pytest.approx(1.0481470739682048, rel=1e-15)
        assert D[1, 2] == pytest.approx(0.8325546111576977, rel=1e-15)

    def test_pinned_order_infinity(self, path_triple):
        _, prep, table = path_triple
        D = distance_matrix(prep, table, math.inf)
        np.testing.assert_allclose(
            D, [[0.0, 0.5, 1.0], [0.5, 0.0, 1.0], [1.0, 1.0, 0.0]]
        )

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
    def test_matches_per_pair(self, p):
        g = random_weighted_graph(3)
        rng = np.random.default_rng(42)
        root = int(rng.integers(g.node_count))
        rs, prep = prepare_root(g, root)
        pool = []
        for _ in range(8):
            nodes = rng.choice(g.node_count, size=3, replace=False)
            mass = rng.dirichlet(np.ones(3))
            pool.append(
                DiscreteMeasure(tuple(int(x) for x in nodes), tuple(mass / mass.sum()))
            )
        # a duplicated measure, zero-mass support nodes (at the root and off
        # it, the latter storing explicit zeros in Gamma), a Dirac at the root
        pool.append(pool[2])
        pool.append(DiscreteMeasure(pool[0].nodes + (root,), pool[0].masses + (0.0,)))
        other = next(x for x in range(g.node_count) if x not in pool[1].nodes)
        pool.append(DiscreteMeasure(pool[1].nodes + (other,), pool[1].masses + (0.0,)))
        pool.append(DiscreteMeasure.dirac(root))
        table = gamma_masses(rs, pool)
        variants = [VARIANT_SOBOLEV_IPM]
        if math.isfinite(p):
            variants.append(VARIANT_SOBOLEV_TRANSPORT)
        for variant in variants:
            D = distance_matrix(prep, table, p, variant=variant)
            for i in range(len(pool)):
                for j in range(len(pool)):
                    want = measure_distance(rs, prep, pool[i], pool[j], p, variant)
                    assert D[i, j] == want, (variant, i, j)

    def test_transport_variant_matches(self, path_triple):
        _, prep, table = path_triple
        D = distance_matrix(prep, table, 2.0, variant=VARIANT_SOBOLEV_TRANSPORT)
        # raw unit lengths: same values as the order-1 matrix except the
        # two-edge pair, which collapses to 2 ** (1/2)
        assert D[0, 1] == 1.0
        assert D[0, 2] == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_root_mismatch(self, path_graph):
        _, prep0 = prepare_root(path_graph, 0)
        rs2, _ = prepare_root(path_graph, 2)
        # a table from another root is refused, even one without a pair
        for count in (1, 2):
            table = gamma_masses(rs2, [DiscreteMeasure.dirac(0)] * count)
            with pytest.raises(RootMismatch):
                distance_matrix(prep0, table, 1.0)

    def test_empty_input(self, path_graph):
        rs, prep = prepare_root(path_graph, 0)
        assert distance_matrix(prep, gamma_masses(rs, []), 2.0).shape == (0, 0)

    def test_all_at_root(self, path_graph):
        rs, prep = prepare_root(path_graph, 0)
        table = gamma_masses(rs, [DiscreteMeasure.dirac(0)] * 3)
        assert table.indptr.tolist() == [0, 0, 0, 0]
        assert distance_matrix(prep, table, 2.0).max() == 0.0
        assert distance_matrix(prep, table, math.inf).max() == 0.0

    @pytest.mark.parametrize(
        "p, variant",
        [(p, VARIANT_SOBOLEV_IPM) for p in (1.0, 1.5, 2.0, math.inf)]
        + [(p, VARIANT_SOBOLEV_TRANSPORT) for p in (1.0, 1.5, 2.0)],
    )
    def test_equals_scatter_of_listed_pairs(self, monkeypatch, p, variant):
        # the matrix as it was built from the listed upper triangle: each
        # value scattered to (i, j) and (j, i) of a zero matrix
        g = random_weighted_graph(4, 30, 50)
        rs, prep = prepare_root(g, 3)
        table = gamma_masses(rs, random_measures(g, 17, 4, seed=2))
        n = len(table)
        i, j = np.triu_indices(n, 1)
        d = pair_distances(prep, table, i, j, p, variant)
        want = np.zeros((n, n))
        want[i, j] = d
        want[j, i] = d
        threads = threading.active_count()
        for entries, lanes in ((1, 3), (5, 2), (64, 1), (1 << 15, 2)):
            monkeypatch.setattr(metrics, "_BLOCK_ENTRIES", entries)
            monkeypatch.setattr(metrics, "_lane_count", lambda: lanes)
            got = distance_matrix(prep, table, p, variant=variant)
            assert got.tobytes() == want.tobytes()
            assert threading.active_count() == threads


class TestGramMatrix:
    def test_pinned_kernel(self, path_triple):
        _, prep, table = path_triple
        D = distance_matrix(prep, table, 2.0)
        K = gram_matrix(D, GramSpec(p=2.0, t=1.0))
        np.testing.assert_allclose(
            K,
            [
                [1.0, 0.52900287, 0.35058676],
                [0.52900287, 1.0, 0.43493677],
                [0.35058676, 0.43493677, 1.0],
            ],
            rtol=1e-7,
        )
        assert min_eigenvalue(K) == pytest.approx(0.4570534647840941, rel=1e-12)
        np.testing.assert_array_equal(np.diag(K), np.ones(3))

    def test_power_form(self, path_triple):
        _, prep, table = path_triple
        D = distance_matrix(prep, table, 2.0)
        K = gram_matrix(D, GramSpec(p=2.0, t=0.5, form=KERNEL_EXP_POW))
        want = math.exp(-0.5 * D[0, 1] ** 2)
        assert K[0, 1] == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("form", [KERNEL_EXP, KERNEL_EXP_POW])
    def test_in_place_bits_match_the_expressions(self, p, form):
        # one output array, the same bits as the plain expressions, and the
        # caller's matrix untouched
        rng = np.random.default_rng(int(10 * p))
        D = rng.lognormal(0.0, 2.0, (60, 60))
        D = D + D.T
        np.fill_diagonal(D, 0.0)
        D[3, 5] = D[5, 3] = 1e-300
        D[7, 9] = D[9, 7] = 1e150
        kept = D.copy()
        t = 0.37
        K = gram_matrix(D, GramSpec(p=p, t=t, form=form))
        powered = D**p if form == KERNEL_EXP_POW and p != 1.0 else D
        assert K.tobytes() == np.exp(-t * powered).tobytes()
        assert D.tobytes() == kept.tobytes()
        assert not np.shares_memory(K, D)

    def test_bandwidth_scales_monotonically(self, path_triple):
        _, prep, table = path_triple
        D = distance_matrix(prep, table, 1.0)
        k_narrow = gram_matrix(D, GramSpec(p=1.0, t=10.0))[0, 2]
        k_wide = gram_matrix(D, GramSpec(p=1.0, t=0.1))[0, 2]
        assert k_narrow < k_wide < 1.0

    def test_spec_validation(self):
        with pytest.raises(InvalidBandwidth):
            GramSpec(p=1.0, t=0.0)
        with pytest.raises(InvalidBandwidth):
            GramSpec(p=1.0, t=-1.0)
        with pytest.raises(ValueError):
            GramSpec(p=1.0, t=1.0, form="nope")
        with pytest.raises(InvalidExponent):
            GramSpec(p=3.0, t=1.0)
        # outside [1, 2] needs the explicit opt-in
        GramSpec(p=3.0, t=1.0, allow_outside_range=True)


class TestDefiniteness:
    def test_clean_instance(self, path_triple):
        _, prep, table = path_triple
        D = distance_matrix(prep, table, 2.0)
        rep = check_negative_definite(D, seed=0)
        assert rep.passed
        assert rep.violations == 0
        assert rep.spectral_passed
        assert rep.spectral_min >= -1e-8

    def test_detects_violation(self):
        # cube of the line metric on four points: the doubly centered
        # negation has an eigenvalue near -5, far past any tolerance
        D = np.abs(np.subtract.outer(np.arange(4.0), np.arange(4.0))) ** 3
        rep = check_negative_definite(D, seed=0)
        assert not rep.passed
        assert not rep.spectral_passed
        assert rep.spectral_min == pytest.approx(-5.0, rel=1e-9)
        assert rep.violations > 0
        assert rep.worst > 0.0

    def test_empty_matrix(self):
        rep = check_negative_definite(np.zeros((0, 0)))
        assert rep.passed
        assert quadratic_form_violations(np.zeros((0, 0))) == (0, 0.0)
        assert min_eigenvalue(np.zeros((0, 0))) == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_quadratic_forms_match_inline_loop(self, seed):
        def inline(D, trials, seed):
            rng = np.random.default_rng(seed)
            scale = float(D.max())
            violations, worst = 0, -math.inf
            for _ in range(trials):
                c = rng.standard_normal(len(D))
                c -= c.mean()
                q = float(c @ D @ c)
                worst = max(worst, q)
                if q > 1e-8 * float(c @ c) * scale:
                    violations += 1
            return violations, worst

        rng = np.random.default_rng(seed)
        pts = rng.random((25, 3))
        euclid = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
        noise = rng.random((25, 25))
        for D in (euclid, euclid**3, noise + noise.T):
            got = quadratic_form_violations(D, seed=seed)
            assert got == inline(D, 200, seed)
        assert quadratic_form_violations(euclid, seed)[0] == 0
        assert quadratic_form_violations(euclid**3, seed)[0] > 0

    def test_eigenvalue_failure_is_non_convergence(self, monkeypatch):
        def fail(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(NonConvergence, match="Eigenvalues did not converge"):
            min_eigenvalue(np.eye(3))

    def test_non_square_rejected(self):
        rect = np.ones((2, 3))
        for check in (
            lambda: check_negative_definite(rect),
            lambda: min_eigenvalue(rect),
            lambda: divisibility_check(rect, 2),
            lambda: gram_matrix(rect, GramSpec(p=1.0, t=1.0)),
        ):
            with pytest.raises(ValueError):
                check()


class TestDivisibility:
    def test_exponential_kernel_divisible(self, path_triple):
        _, prep, table = path_triple
        D = distance_matrix(prep, table, 2.0)
        K = gram_matrix(D, GramSpec(p=2.0, t=1.0))
        for n in (1, 2, 5, 10):
            assert divisibility_check(K, n)

    def test_rejects_bad_root_count(self, path_triple):
        _, prep, table = path_triple
        K = gram_matrix(distance_matrix(prep, table, 1.0), GramSpec(p=1.0, t=1.0))
        with pytest.raises(ValueError):
            divisibility_check(K, 0)

    def test_rejects_zero_entries(self):
        with pytest.raises(NonPositiveEntry):
            divisibility_check(np.eye(2), 2)


class TestMatrixCsv:
    def test_round_trip_exact(self, tmp_path, path_triple):
        _, prep, table = path_triple
        D = distance_matrix(prep, table, 2.0)
        path = str(tmp_path / "d.csv")
        write_matrix_csv(D, path)
        back = read_matrix_csv(path)
        np.testing.assert_array_equal(back, D)
        first = Path(path).read_text().partition("\n")[0]
        assert first == "3"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            read_matrix_csv(str(path))

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("2\n0.0,1.0\n")
        with pytest.raises(ValueError):
            read_matrix_csv(str(path))
