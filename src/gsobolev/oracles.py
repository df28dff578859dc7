"""Independent slow references for the closed-form distances.

Three deliberately different routes:

* exact 1-Wasserstein through a transportation linear program on true
  shortest-path costs (no shared code with the closed forms),
* composite Simpson quadrature for the per-edge weights,
* direct discretization of the defining integral over the graph's edges,
  with every cumulative quantity recomputed by brute-force path membership.

These exist to catch bugs in the fast paths, so they must stay naive: no
caches, no shared accumulation tricks, small-instance size caps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix, lil_matrix
from scipy.sparse.csgraph import dijkstra as _sp_dijkstra

from .errors import InfeasibleMass, InvalidExponent, SizeLimitExceeded
from .graph import Graph, RootedStructure, shortest_path_tree
from .measures import DiscreteMeasure

# Caps keeping the exact LP route honest about what it can afford.
LP_MAX_NODES = 1000
LP_MAX_SUPPORT = 500


@dataclass(frozen=True, eq=False)
class TransportPlanLP:
    """Optimal transport solution between two node-supported measures: the
    ``cost`` and ``plan`` rows follow the source's support nodes, and their
    columns the sink's."""

    cost: np.ndarray
    plan: np.ndarray
    objective: float


def transport_plan_lp(g: Graph, mu: DiscreteMeasure, nu: DiscreteMeasure) -> TransportPlanLP:
    """Solve the transportation LP between ``mu`` and ``nu`` exactly.

    Ground costs are shortest-path distances from the source supports,
    computed independently of any rooted structure.  Marginal feasibility of
    the returned plan is verified to 1e-9 before the objective is trusted.
    ``scipy.optimize`` is imported here, on the first solve, so that the
    commands that never solve an LP do not load it.
    """
    from scipy.optimize import linprog

    if g.node_count > LP_MAX_NODES:
        raise SizeLimitExceeded(
            f"graph has {g.node_count} nodes, LP oracle capped at {LP_MAX_NODES}"
        )
    if mu.support_size > LP_MAX_SUPPORT or nu.support_size > LP_MAX_SUPPORT:
        raise SizeLimitExceeded(
            f"support sizes {mu.support_size}/{nu.support_size} exceed "
            f"LP oracle cap {LP_MAX_SUPPORT}"
        )
    a = np.array(mu.masses, dtype=np.float64)
    b = np.array(nu.masses, dtype=np.float64)
    if abs(math.fsum(mu.masses) - math.fsum(nu.masses)) > 1e-9:
        raise InfeasibleMass("total masses differ; transport is infeasible")
    src = np.array(mu.nodes, dtype=np.int64)
    snk = np.array(nu.nodes, dtype=np.int64)
    cost = np.asarray(
        _sp_dijkstra(g._csr, directed=True, indices=src), dtype=np.float64
    ).reshape(src.size, -1)[:, snk]

    ns, nt = src.size, snk.size
    A = lil_matrix((ns + nt, ns * nt))
    for i in range(ns):
        A[i, i * nt : (i + 1) * nt] = 1.0
    for j in range(nt):
        A[ns + j, j::nt] = 1.0
    rhs = np.concatenate([a, b])
    res = linprog(
        cost.ravel(),
        A_eq=csr_matrix(A),
        b_eq=rhs,
        bounds=(0, None),
        method="highs",
    )
    if not res.success:
        raise InfeasibleMass(f"transport LP failed: {res.message}")
    plan = res.x.reshape(ns, nt)
    if (
        np.abs(plan.sum(axis=1) - a).max() > 1e-9
        or np.abs(plan.sum(axis=0) - b).max() > 1e-9
    ):
        raise InfeasibleMass("LP plan violates its marginals beyond 1e-9")
    return TransportPlanLP(cost=cost, plan=plan, objective=float(res.fun))


def wasserstein1_lp(g: Graph, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Exact 1-Wasserstein distance via the transportation LP."""
    return transport_plan_lp(g, mu, nu).objective


def beta_quadrature(lam: float, w: float, p: float, steps: int = 10_000) -> float:
    """Composite Simpson approximation of the per-edge weight integral
    ``integral_0^1 (1 + lam + w t)**(1-p) w dt``.

    ``steps`` counts subintervals (rounded up to even).  Simpson integrates
    the constant order-1 case exactly and converges at fourth order
    otherwise, so ~10^4 steps reach well past 1e-8 relative error on the
    scales this package meets.
    """
    p = float(p)
    if math.isnan(p) or math.isinf(p) or p < 1.0:
        raise InvalidExponent(f"order p must be finite and >= 1, got {p!r}")
    if not (w > 0.0 and lam >= 0.0):
        raise ValueError(f"need w > 0 and lam >= 0, got w={w!r}, lam={lam!r}")
    n = int(steps)
    if n < 2:
        raise ValueError(f"need at least 2 subintervals, got {steps}")
    if n % 2:
        n += 1
    t = np.linspace(0.0, 1.0, n + 1)
    y = w * (1.0 + lam + w * t) ** (1.0 - p)
    coeff = np.ones(n + 1)
    coeff[1:-1:2] = 4.0
    coeff[2:-1:2] = 2.0
    h = 1.0 / n
    return float(h / 3.0 * math.fsum((coeff * y).tolist()))


def _path_edges_and_nodes(
    rs: RootedStructure, x: int
) -> tuple[frozenset[int], frozenset[int]]:
    """Edge ids and node ids on the recorded root path to ``x`` (brute walk)."""
    edges = []
    nodes = [x]
    v = x
    while v != rs.root:
        edges.append(int(rs.parent_edge[v]))
        v = int(rs.parent[v])
        nodes.append(v)
    return frozenset(edges), frozenset(nodes)


def distance_by_discretization(
    g: Graph,
    root: int,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    p: float,
    resolution: int = 100_000,
) -> float:
    """Midpoint-rule discretization of the defining integral; returns the
    ``p``-th power of the distance (the value of the integral itself).

    Every ingredient is recomputed the slow way: cumulative masses by
    scanning, per edge, which support points' root paths contain it, and the
    downstream length of each node by scanning, per edge, which endpoint
    shares hang below that node.  Only the rooted tree itself is shared with
    the fast path, since both must agree on tie-breaking to describe the same
    object.
    """
    p = float(p)
    if math.isnan(p) or math.isinf(p) or p < 1.0:
        raise InvalidExponent(f"order p must be finite and >= 1, got {p!r}")
    if resolution < 10:
        raise ValueError(f"resolution must be at least 10, got {resolution}")
    rs = shortest_path_tree(g, root)
    n = g.node_count

    paths = [_path_edges_and_nodes(rs, x) for x in range(n)]

    # Downstream length of each node v: over all edges, each endpoint's
    # breakpoint share counts iff v lies on that endpoint's root path.
    lam_node = np.zeros(n, dtype=np.float64)
    for e in range(g.edge_count):
        a, b = int(g.edge_u[e]), int(g.edge_v[e])
        w = float(g.edge_w[e])
        da, db = float(rs.dist[a]), float(rs.dist[b])
        share_a = w * min(1.0, max(0.0, (db - da + w) / (2.0 * w)))
        share_b = w * min(1.0, max(0.0, (da - db + w) / (2.0 * w)))
        for v in range(n):
            if v in paths[a][1]:
                lam_node[v] += share_a
            if v in paths[b][1]:
                lam_node[v] += share_b

    # Cumulative mass through each edge, by path membership per support point.
    def edge_mass(meas: DiscreteMeasure, e: int) -> float:
        return math.fsum(
            m for node, m in zip(meas.nodes, meas.masses) if e in paths[node][0]
        )

    mids = (np.arange(resolution) + 0.5) / resolution
    total = 0.0
    for e in range(g.edge_count):
        delta = edge_mass(mu, e) - edge_mass(nu, e)
        if delta == 0.0:
            continue
        # Tree edge e enters its child c; the downstream region shrinks
        # linearly from lam_node[c] + w at the parent end to lam_node[c].
        child = int(g.edge_v[e]) if rs.parent_edge[int(g.edge_v[e])] == e else int(g.edge_u[e])
        w = float(g.edge_w[e])
        weight = 1.0 + lam_node[child] + w * (1.0 - mids)
        integrand = weight ** (1.0 - p) * abs(delta) ** p
        total += float(integrand.sum()) * (w / resolution)
    return total
