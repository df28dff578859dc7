"""Synthetic instance generators: clouds, clustering, graphs, measures."""

from __future__ import annotations

import math

import numpy as np
import pytest

from gsobolev import (
    DegenerateGeometryWarning,
    EmptyCloud,
    FAMILY_LOG,
    FAMILY_SQRT,
    PointCloud,
    SupportTooLarge,
    build_random_graph,
    farthest_point_clustering,
    random_measures,
    random_tree,
)


class TestPointCloud:
    def test_basic(self):
        pc = PointCloud(np.zeros((4, 3)))
        assert len(pc) == 4

    def test_empty(self):
        with pytest.raises(EmptyCloud):
            PointCloud(np.zeros((0, 2)))

    def test_wrong_rank(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros(5))

    def test_non_finite(self):
        with pytest.raises(ValueError):
            PointCloud(np.array([[0.0, np.inf]]))

    def test_frozen(self):
        pc = PointCloud(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            pc.points[0, 0] = 1.0


class TestFarthestPointClustering:
    def test_collinear_extremes(self):
        # whichever point seeds the set, the far end at 10 joins it and the
        # two near points end up sharing a centroid
        pc = PointCloud(np.array([[0.0], [1.0], [10.0]]))
        for seed in range(6):
            centroids, assignment = farthest_point_clustering(pc, 2, seed=seed)
            assert len(centroids) == 2
            assert 10.0 in centroids.points[:, 0]
            assert assignment[0] == assignment[1] != assignment[2]

    def test_all_points_when_m_large(self):
        rng = np.random.default_rng(3)
        pc = PointCloud(rng.random((5, 2)))
        centroids, assignment = farthest_point_clustering(pc, 9, seed=0)
        assert len(centroids) == 5
        # every point is its own centroid
        for i in range(5):
            np.testing.assert_array_equal(pc.points[i], centroids.points[assignment[i]])

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        pc = PointCloud(rng.random((40, 2)))
        a, asg_a = farthest_point_clustering(pc, 6, seed=11)
        b, asg_b = farthest_point_clustering(pc, 6, seed=11)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(asg_a, asg_b)

    def test_assignment_is_nearest(self):
        rng = np.random.default_rng(5)
        pc = PointCloud(rng.random((60, 2)))
        centroids, assignment = farthest_point_clustering(pc, 8, seed=0)
        d2 = ((pc.points[:, None, :] - centroids.points[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(assignment, np.argmin(d2, axis=1))

    @staticmethod
    def tensor_assignment(pc, centroids):
        """Reference: the full N x M x d distance tensor, first minimum wins."""
        d2 = ((pc.points[:, None, :] - centroids.points[None, :, :]) ** 2).sum(axis=2)
        return np.argmin(d2, axis=1)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_assignment_matches_tensor_formula(self, seed, dim):
        rng = np.random.default_rng(seed)
        pc = PointCloud(rng.random((int(rng.integers(20, 200)), dim)))
        centroids, assignment = farthest_point_clustering(pc, int(rng.integers(1, 20)), seed=seed)
        np.testing.assert_array_equal(assignment, self.tensor_assignment(pc, centroids))

    @pytest.mark.parametrize("seed", range(4))
    def test_assignment_with_duplicates(self, seed):
        # repeated points and repeated centroids tie exactly; the smaller
        # centroid index must win, as in the tensor formula
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 3, size=(12, 2)).astype(float)
        pc = PointCloud(base[rng.integers(0, 12, size=60)])
        for m in (3, 8, 60):
            centroids, assignment = farthest_point_clustering(pc, m, seed=seed)
            np.testing.assert_array_equal(assignment, self.tensor_assignment(pc, centroids))

    def test_assignment_when_every_point_is_a_centroid(self):
        rng = np.random.default_rng(8)
        pc = PointCloud(rng.random((30, 2)))
        centroids, assignment = farthest_point_clustering(pc, 30, seed=2)
        np.testing.assert_array_equal(assignment, self.tensor_assignment(pc, centroids))
        np.testing.assert_array_equal(centroids.points[assignment], pc.points)

    def test_two_approximation(self):
        # greedy k-center radius is within twice the optimum; against the
        # crude lower bound (max pair distance / 2 for k = 2) that means the
        # radius never exceeds the max pairwise distance
        rng = np.random.default_rng(6)
        pc = PointCloud(rng.random((50, 2)))
        centroids, assignment = farthest_point_clustering(pc, 2, seed=0)
        radius = max(
            math.dist(pc.points[i], centroids.points[assignment[i]])
            for i in range(len(pc))
        )
        diameter = max(
            math.dist(pc.points[i], pc.points[j])
            for i in range(len(pc))
            for j in range(i + 1, len(pc))
        )
        assert radius <= diameter

    def test_rejects_zero_centroids(self):
        with pytest.raises(ValueError):
            farthest_point_clustering(PointCloud(np.zeros((2, 2))), 0)


class TestBuildRandomGraph:
    @pytest.mark.parametrize(
        "m,family,target",
        [
            (50, FAMILY_LOG, math.ceil(50 * math.log(50))),
            (50, FAMILY_SQRT, math.ceil(50**1.5)),
            (5, FAMILY_LOG, 9),
        ],
    )
    def test_edge_budget(self, m, family, target):
        rng = np.random.default_rng(8)
        pc = PointCloud(rng.random((m, 2)))
        g = build_random_graph(pc, family, seed=1)
        assert g.node_count == m
        # sampled budget, plus whatever it took to join the components
        assert target <= g.edge_count <= target + m

    def test_sqrt_denser_than_log(self):
        rng = np.random.default_rng(9)
        pc = PointCloud(rng.random((80, 2)))
        sparse = build_random_graph(pc, FAMILY_LOG, seed=2)
        dense = build_random_graph(pc, FAMILY_SQRT, seed=2)
        assert dense.edge_count > sparse.edge_count

    def test_euclidean_lengths(self):
        rng = np.random.default_rng(10)
        pc = PointCloud(rng.random((30, 2)))
        g = build_random_graph(pc, FAMILY_LOG, seed=3)
        for u, v, w in zip(g.edge_u, g.edge_v, g.edge_w):
            assert w == pytest.approx(math.dist(pc.points[u], pc.points[v]), rel=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        pc = PointCloud(rng.random((25, 2)))
        a = build_random_graph(pc, FAMILY_LOG, seed=4)
        b = build_random_graph(pc, FAMILY_LOG, seed=4)
        np.testing.assert_array_equal(a.edge_u, b.edge_u)
        np.testing.assert_array_equal(a.edge_v, b.edge_v)
        np.testing.assert_array_equal(a.edge_w, b.edge_w)
        c = build_random_graph(pc, FAMILY_LOG, seed=5)
        assert not (
            a.edge_count == c.edge_count and np.array_equal(a.edge_u, c.edge_u)
        )

    def test_coincident_points_jittered(self):
        pc = PointCloud(np.zeros((2, 2)))
        with pytest.warns(DegenerateGeometryWarning):
            g = build_random_graph(pc, FAMILY_LOG, seed=0)
        assert g.edge_count == 1
        assert g.edge_w[0] == 1e-9

    def test_unknown_family(self):
        pc = PointCloud(np.zeros((3, 2)) + np.arange(3)[:, None])
        with pytest.raises(ValueError):
            build_random_graph(pc, "dense")

    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            build_random_graph(PointCloud(np.zeros((1, 2))), FAMILY_LOG)


class TestRandomTree:
    def test_shape(self):
        g = random_tree(30, seed=0)
        assert g.node_count == 30
        assert g.edge_count == 29

    def test_weight_range(self):
        g = random_tree(40, seed=1)
        assert (g.edge_w >= 0.2).all() and (g.edge_w < 2.0).all()

    def test_deterministic(self):
        a, b = random_tree(15, seed=2), random_tree(15, seed=2)
        np.testing.assert_array_equal(a.edge_v, b.edge_v)
        np.testing.assert_array_equal(a.edge_w, b.edge_w)

    def test_too_small(self):
        with pytest.raises(ValueError):
            random_tree(1)


class TestRandomMeasures:
    def test_shapes_and_masses(self, figure_graph):
        out = random_measures(figure_graph, 7, 4, seed=0)
        assert len(out) == 7
        for mu in out:
            assert mu.support_size == 4
            assert len(set(mu.nodes)) == 4
            assert max(mu.nodes) < 10
            assert math.fsum(mu.masses) == pytest.approx(1.0, abs=1e-12)
            assert min(mu.masses) >= 0.0

    def test_deterministic(self, figure_graph):
        a = random_measures(figure_graph, 3, 2, seed=9)
        b = random_measures(figure_graph, 3, 2, seed=9)
        assert a == b

    def test_support_cap(self, figure_graph):
        with pytest.raises(SupportTooLarge):
            random_measures(figure_graph, 1, 11, seed=0)

    def test_count_floor(self, figure_graph):
        with pytest.raises(ValueError):
            random_measures(figure_graph, 0, 1, seed=0)
