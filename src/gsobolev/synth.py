"""Synthetic instances: clustered point clouds, random graphs, random measures.

The random graph families connect ``M`` cluster centroids with about
``M log M`` (sparse) or ``M^1.5`` (dense) uniformly sampled distinct node
pairs, weighted by Euclidean length, then patch connectivity with random
cross-component edges.  Measures draw distinct support nodes uniformly and
Dirichlet(1) masses.  Everything is deterministic given its seed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import DegenerateGeometryWarning, EmptyCloud, SupportTooLarge
from .graph import Graph
from .measures import DiscreteMeasure

FAMILY_LOG = "log"
FAMILY_SQRT = "sqrt"
FAMILIES = (FAMILY_LOG, FAMILY_SQRT)

# Zero-length edges (coincident centroids) get this length instead.
ZERO_LENGTH_JITTER = 1e-9


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Finite set of points in R^d, one row per point."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError("points must be a 2-d array (n, d)")
        if pts.shape[0] == 0:
            raise EmptyCloud("point cloud holds no points")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return int(self.points.shape[0])


def farthest_point_clustering(
    pc: PointCloud, m: int, seed: int = 0
) -> tuple[PointCloud, np.ndarray]:
    """Greedy 2-approximate k-center clustering.

    Seeds the first centroid uniformly at random, then repeatedly promotes
    the point farthest from the chosen set, stopping at ``min(m, len(pc))``
    centroids.  Returns the centroids and each point's centroid index
    (nearest centroid, ties to the smaller index).
    """
    if m < 1:
        raise ValueError(f"need at least one centroid, got {m}")
    pts = pc.points
    n = len(pc)
    k = min(m, n)
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(n))]
    # min squared distance from each point to the chosen set, and the index
    # of the first centroid attaining it (moved only on a strictly smaller
    # distance, so ties keep the smaller index)
    gap = ((pts - pts[chosen[0]]) ** 2).sum(axis=1)
    assignment = np.zeros(n, dtype=np.int64)
    while len(chosen) < k:
        nxt = int(np.argmax(gap))
        d2 = ((pts - pts[nxt]) ** 2).sum(axis=1)
        assignment[d2 < gap] = len(chosen)
        chosen.append(nxt)
        gap = np.minimum(gap, d2)
    return PointCloud(pts[chosen].copy()), assignment


def _edge_target(m: int, family: str) -> int:
    if family == FAMILY_LOG:
        want = math.ceil(m * math.log(m))
    elif family == FAMILY_SQRT:
        want = math.ceil(m**1.5)
    else:
        raise ValueError(f"unknown family {family!r}; pick from {FAMILIES}")
    return min(want, m * (m - 1) // 2)


def _sample_distinct_pairs(m: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """First ``count`` distinct unordered pairs in draw order (uniform)."""
    seen: dict[int, None] = {}
    while len(seen) < count:
        need = count - len(seen)
        u = rng.integers(0, m, size=max(64, 3 * need))
        v = rng.integers(0, m, size=u.size)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        keep = lo < hi
        for code in (lo[keep] * m + hi[keep]).tolist():
            if code not in seen:
                seen[code] = None
                if len(seen) == count:
                    break
    codes = np.fromiter(seen.keys(), dtype=np.int64, count=count)
    return np.stack([codes // m, codes % m], axis=1)


def build_random_graph(centroids: PointCloud, family: str, seed: int = 0) -> Graph:
    """Random geometric graph over centroid nodes.

    Samples the family's edge budget as uniform distinct node pairs with
    Euclidean lengths, counts connected components, and joins them with
    random cross-component edges (uniform over cross-component node pairs)
    until one component remains.  Coincident centroids would produce
    zero-length edges; those get a tiny positive jitter and a warning.
    """
    m = len(centroids)
    if m < 2:
        raise ValueError(f"need at least two centroids, got {m}")
    rng = np.random.default_rng(seed)
    pairs = _sample_distinct_pairs(m, _edge_target(m, family), rng)
    pts = centroids.points

    def length(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        d = np.sqrt(((pts[u] - pts[v]) ** 2).sum(axis=-1))
        zero = d <= 0.0
        if np.any(zero):
            warnings.warn(
                f"{int(np.count_nonzero(zero))} coincident centroid pair(s); "
                f"using {ZERO_LENGTH_JITTER} edge length",
                DegenerateGeometryWarning,
                stacklevel=3,
            )
            d = np.where(zero, ZERO_LENGTH_JITTER, d)
        return d

    u, v = pairs[:, 0], pairs[:, 1]
    w = length(u, v)

    adj = csr_matrix(
        (np.ones(2 * u.size), (np.concatenate([u, v]), np.concatenate([v, u]))),
        shape=(m, m),
    )
    n_comp, label = connected_components(adj, directed=False)
    extra: list[tuple[int, int, float]] = []
    label = label.copy()
    while n_comp > 1:
        a = int(rng.integers(m))
        b = int(rng.integers(m))
        if label[a] == label[b]:
            continue
        extra.append((a, b, float(length(np.array([a]), np.array([b]))[0])))
        label[label == label[b]] = label[a]
        n_comp -= 1

    eu = np.concatenate([u, np.array([e[0] for e in extra], dtype=np.int64)])
    ev = np.concatenate([v, np.array([e[1] for e in extra], dtype=np.int64)])
    ew = np.concatenate([w, np.array([e[2] for e in extra], dtype=np.float64)])
    return Graph(m, eu, ev, ew)


def random_tree(n: int, seed: int = 0) -> Graph:
    """Random tree: node ``i`` attaches to a uniform earlier node with a
    uniform length from ``[0.2, 2.0)``.  Instance pool helper for the
    verification suites."""
    if n < 2:
        raise ValueError(f"need at least two nodes, got {n}")
    rng = np.random.default_rng(seed)
    parents = np.array([int(rng.integers(0, i)) for i in range(1, n)], dtype=np.int64)
    w = rng.uniform(0.2, 2.0, size=n - 1)
    return Graph(n, np.arange(1, n, dtype=np.int64), parents, w)


def random_measures(
    g: Graph, count: int, support_size: int, seed: int = 0
) -> list[DiscreteMeasure]:
    """Draw ``count`` measures: distinct uniform support nodes, Dirichlet(1)
    masses rescaled to sum to one exactly."""
    if count < 1:
        raise ValueError(f"need at least one measure, got {count}")
    if not 1 <= support_size <= g.node_count:
        raise SupportTooLarge(
            f"support size {support_size} not in [1, {g.node_count}]"
        )
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        nodes = rng.choice(g.node_count, size=support_size, replace=False)
        masses = rng.dirichlet(np.ones(support_size))
        masses = masses / masses.sum()
        out.append(DiscreteMeasure(tuple(int(x) for x in nodes), tuple(masses)))
    return out
