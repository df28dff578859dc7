"""Shared metric graph, rooted shortest-path structure, and edge preprocessing.

Everything downstream starts from three immutable objects.  A :class:`Graph`
is a validated, connected, positively weighted simple graph whose edge ids are
stable file/constructor order.  A :class:`RootedStructure` records the
shortest-path tree grown from a chosen root, with deterministic handling of
equal-length path ties.  An :class:`EdgePrep` carries, for every edge, the
total length of the region of the graph whose root paths traverse that edge
(the downstream length), which is the only graph-dependent quantity the
closed-form distances need.

All arrays are frozen after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components
from scipy.sparse.csgraph import dijkstra as _sp_dijkstra

from .errors import Disconnected, DuplicateEdge, NonPositiveWeight, ParseError
from .textio import read_table, row_line, significant_lines, utf8_input, write_rows

# Two root-path lengths within this relative tolerance count as tied.
TIE_RTOL = 1e-12


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected connected graph with positive edge lengths.

    Edge ``i`` joins ``edge_u[i]`` and ``edge_v[i]`` with length ``edge_w[i]``.
    Edge ids are construction order and never change, so they are stable cache
    keys.  Self-loops and repeated unordered pairs are rejected (both violate
    the simple-graph invariant and raise :class:`DuplicateEdge`).
    """

    node_count: int
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_w: np.ndarray

    def __post_init__(self) -> None:
        n = self.node_count
        if n < 1:
            raise ValueError("graph needs at least one node")
        u = np.asarray(self.edge_u, dtype=np.int64).reshape(-1)
        v = np.asarray(self.edge_v, dtype=np.int64).reshape(-1)
        w = np.asarray(self.edge_w, dtype=np.float64).reshape(-1)
        if not (u.size == v.size == w.size):
            raise ValueError("edge arrays must share one length")
        if u.size and (u.min() < 0 or v.min() < 0 or max(u.max(), v.max()) >= n):
            raise ValueError("edge endpoint outside [0, node_count)")
        bad = ~(np.isfinite(w) & (w > 0.0))
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise NonPositiveWeight(
                f"edge {i} ({u[i]}-{v[i]}) has non-positive length {w[i]!r}"
            )
        loops = u == v
        if loops.any():
            i = int(np.flatnonzero(loops)[0])
            raise DuplicateEdge(f"edge {i} is a self-loop at node {u[i]}")
        # One sort of the pair keys: equal neighbours are repeats, then the CSR.
        key = np.minimum(u, v) * n + np.maximum(u, v)
        order = np.argsort(key)
        key = key[order]
        dup = np.flatnonzero(key[1:] == key[:-1])
        if dup.size:
            k = int(key[dup[0]])
            raise DuplicateEdge(f"node pair ({k // n}, {k % n}) appears more than once")
        object.__setattr__(self, "edge_u", _freeze(u))
        object.__setattr__(self, "edge_v", _freeze(v))
        object.__setattr__(self, "edge_w", _freeze(w))
        # Symmetric CSR adjacency; max -> min arcs first, so every row is sorted.
        idx = np.int32 if n <= np.iinfo(np.int32).max else np.int64
        lo, hi = (part.astype(idx) for part in np.divmod(key, n))
        arcs = (np.concatenate([hi, lo]), np.concatenate([lo, hi]))
        csr = csr_matrix((np.tile(w[order], 2), arcs), shape=(n, n))
        object.__setattr__(self, "_csr", csr)
        if breadth_first_order(csr, 0, return_predecessors=False).size < n:
            n_comp, _ = connected_components(csr, directed=False)
            raise Disconnected(f"graph has {n_comp} components, expected 1")

    @property
    def edge_count(self) -> int:
        return int(self.edge_w.size)

    @property
    def total_length(self) -> float:
        """Sum of all edge lengths."""
        return float(self.edge_w.sum())

    @classmethod
    def from_edges(cls, node_count: int, edges: Iterable[tuple[int, int, float]]) -> "Graph":
        """Build a graph from ``(u, v, length)`` triples, validating everything."""
        triples = list(edges)
        u = np.array([e[0] for e in triples], dtype=np.int64)
        v = np.array([e[1] for e in triples], dtype=np.int64)
        w = np.array([e[2] for e in triples], dtype=np.float64)
        return cls(node_count, u, v, w)

    def edge_id(self, a: int, b: int) -> int:
        """Id of the edge joining ``a`` and ``b`` (order-insensitive)."""
        hit = ((self.edge_u == a) & (self.edge_v == b)) | (
            (self.edge_u == b) & (self.edge_v == a)
        )
        ids = np.flatnonzero(hit)
        if ids.size != 1:
            raise KeyError(f"no edge joins nodes {a} and {b}")
        return int(ids[0])


@utf8_input
def load_graph(path: str) -> Graph:
    """Parse a graph file.

    Format: first significant line ``n m``, then ``m`` lines ``u v w`` with
    0-based node ids and positive lengths.  Whole-line ``#`` comments and
    blank lines are ignored; anything after the three fields of an edge line,
    a trailing comment included, is an error.  The header is read line by
    line and the edge lines by :func:`textio.read_table`, whose errors name
    the offending line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lineno, text = next(significant_lines(fh), (0, ""))
    if not lineno:
        raise ParseError(f"{path}: no data lines")
    header = text.split()
    if len(header) != 2:
        raise ParseError(f"{path}:{lineno}: header must be 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: header must hold two integers") from exc
    if n < 1 or m < 0:
        raise ParseError(f"{path}:{lineno}: need n >= 1 and m >= 0")
    errors = ("edge line must be 'u v w'", "cannot parse edge line")
    edges = read_table(path, _EDGE_LINE, path, errors, start=lineno + 1)
    if edges.size != m:
        raise ParseError(f"{path}: header promises {m} edges, found {edges.size}")
    u, v = np.ascontiguousarray(edges["u"]), np.ascontiguousarray(edges["v"])
    outside = np.flatnonzero((u < 0) | (u >= n) | (v < 0) | (v >= n))
    if outside.size:
        bad = row_line(path, int(outside[0]), start=lineno + 1)
        raise ParseError(f"{path}:{bad}: node id outside [0, {n})")
    return Graph(n, u, v, np.ascontiguousarray(edges["w"]))


_EDGE_LINE = np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])


def save_graph(g: Graph, path: str) -> None:
    """Write a graph in the format :func:`load_graph` reads, each length at
    17 significant digits."""
    with open(path, "wb") as fh:
        fh.write(b"%d %d\n" % (g.node_count, g.edge_count))
        write_rows(fh, (np.column_stack((g.edge_u, g.edge_v)), g.edge_w), " ")


@dataclass(frozen=True, eq=False)
class RootedStructure:
    """Shortest-path tree of a graph grown from one root.

    ``dist`` holds exact Dijkstra distances.  ``parent``/``parent_edge`` give,
    for every non-root node, the tree predecessor; when several predecessors
    produce equal-length root paths (within ``TIE_RTOL`` relative tolerance)
    the smallest node id wins and the tie is recorded in ``warnings``.
    ``depth`` counts the tree edges on each node's root path, and
    ``lift[k][x]`` is the node ``2**k`` tree steps above ``x`` (the root once
    the path ends), kept for every ``k`` with ``2**k`` below the largest
    depth.  ``topo_order`` lists nodes by increasing distance, then depth, so
    every parent comes before its children and subtree accumulations can run
    as one linear scan.
    """

    graph: Graph
    root: int
    dist: np.ndarray
    parent: np.ndarray
    parent_edge: np.ndarray
    depth: np.ndarray
    lift: tuple[np.ndarray, ...]
    topo_order: np.ndarray
    warnings: tuple[str, ...]
    _gamma_cache: dict = field(default_factory=dict, repr=False)


def shortest_path_tree(g: Graph, root: int) -> RootedStructure:
    """Grow the shortest-path tree of ``g`` from ``root``.

    Distances come from Dijkstra's algorithm.  Parents are then derived in a
    deterministic pass: node ``u`` is a candidate parent of ``v`` when
    ``dist[u] < dist[v]`` and ``dist[u] + w_uv`` matches ``dist[v]`` within
    ``TIE_RTOL * max(1, dist[v])``; the smallest candidate id is kept and any
    multiplicity is reported as a tie warning.  This makes the recorded tree a
    pure function of the graph and the root, independent of heap order.
    """
    n = g.node_count
    if not 0 <= root < n:
        raise ValueError(f"root {root} outside [0, {n})")
    dist = _sp_dijkstra(g._csr, directed=True, indices=root)
    # Connectivity is a Graph invariant, so every distance is finite.
    tol = TIE_RTOL * np.maximum(1.0, dist)
    eu, ev, w = g.edge_u, g.edge_v, g.edge_w
    du, dv = dist[eu], dist[ev]
    fwd = np.flatnonzero((du < dv) & (np.abs(du + w - dv) <= tol[ev]))  # u parents v
    bwd = np.flatnonzero((dv < du) & (np.abs(dv + w - du) <= tol[eu]))  # v parents u
    # Each child keeps its smallest candidate and the one edge joining them.
    child = np.concatenate([ev[fwd], eu[bwd]])
    cand = np.concatenate([eu[fwd], ev[bwd]])
    counts = np.bincount(child, minlength=n)
    if n > 1 and np.count_nonzero(counts) != n - 1:
        raise AssertionError("some node has no shortest-path predecessor")
    parent = np.full(n, n, dtype=np.int64)
    np.minimum.at(parent, child, cand)
    won = cand == parent[child]
    parent_edge = np.full(n, -1, dtype=np.int64)
    parent_edge[child[won]] = np.concatenate([fwd, bwd])[won]
    parent[counts == 0] = -1
    tie_notes = [
        f"node {v}: {int(counts[v])} equal-length root paths within tolerance; "
        f"kept parent {int(parent[v])} (smallest id)"
        for v in np.flatnonzero(counts > 1).tolist()
    ]

    # Depth by pointer doubling: in round k, ``anc`` jumps 2^k tree steps and
    # ``depth`` counts the edges from each node to its ``anc``.  Depth breaks
    # the (pathological) case of a parent at equal float distance, keeping
    # parents strictly before children in topo_order.
    anc = parent.copy()
    anc[root] = root
    depth = np.ones(n, dtype=np.int64)
    depth[root] = 0
    lift = []
    while (anc != root).any():
        lift.append(_freeze(anc))
        depth += depth[anc]
        anc = anc[anc]
    topo_order = np.lexsort((depth, dist))  # stable: ties keep id order

    return RootedStructure(
        graph=g,
        root=root,
        dist=_freeze(dist),
        parent=_freeze(parent),
        parent_edge=_freeze(parent_edge),
        depth=_freeze(depth),
        lift=tuple(lift),
        topo_order=_freeze(topo_order.astype(np.int64)),
        warnings=tuple(tie_notes),
    )


def root_path_edges(rs: RootedStructure, x: int) -> list[int]:
    """Edge ids of the recorded root path to ``x``, ordered root first."""
    if not 0 <= x < rs.graph.node_count:
        raise ValueError(f"node {x} outside [0, {rs.graph.node_count})")
    out: list[int] = []
    v = x
    while v != rs.root:
        out.append(int(rs.parent_edge[v]))
        v = int(rs.parent[v])
    out.reverse()
    return out


@dataclass(frozen=True, eq=False)
class EdgePrep:
    """Per-edge preprocessing for closed-form distances under one root.

    ``lambda_gamma[e]`` is the downstream length of edge ``e``: the total
    length of everything reached from the root through ``e`` (full lengths of
    tree edges strictly below it plus the breakpoint shares of every other
    edge hanging off that subtree).  Edges outside the shortest-path tree are
    inert in the closed forms (no root path crosses them), so their entry is
    kept at zero.  ``beta_cache`` maps each requested order ``p`` to the
    frozen per-edge weight vector.
    """

    root: int
    lambda_gamma: np.ndarray
    edge_lengths: np.ndarray
    beta_cache: dict = field(default_factory=dict, repr=False)


def lambda_gamma(g: Graph, rs: RootedStructure) -> EdgePrep:
    """Compute every edge's downstream length in ``O(|E| + |V|)`` work,
    with one vectorized step per tree level.

    Each edge's interior splits at the point equidistant from the root via
    either endpoint; the share reached through endpoint ``u`` of edge
    ``(u, v)`` has length ``w * clamp((dist[v] - dist[u] + w) / (2w), 0, 1)``.
    Summing the shares attached to each node and accumulating them up the
    tree, level by level from the deepest, yields at node ``x`` the
    downstream length of the tree edge entering ``x``.
    """
    if rs.graph is not g:
        raise ValueError("rooted structure was built for a different graph")
    n, m = g.node_count, g.edge_count
    eu, ev, w = g.edge_u, g.edge_v, g.edge_w
    gap = rs.dist[ev] - rs.dist[eu]  # w - gap is (du - dv) + w to the bit
    w2 = 2.0 * w
    shares = (np.add(gap, w), np.subtract(w, gap, out=gap))
    for share in shares:  # clip((dv - du + w) / 2w, 0, 1) * w, in place
        np.clip(np.divide(share, w2, out=share), 0.0, 1.0, out=share)
        share *= w
    portion = np.zeros(n, dtype=np.float64)
    np.add.at(portion, eu, shares[0])
    np.add.at(portion, ev, shares[1])

    # Subtree sums sub[x] = portion[x] + sum of sub over the children of x,
    # one tree level at a time from the deepest.  np.add.at adds one by one,
    # so taking each level in reverse topological order adds every parent's
    # children in the order a children-before-parents scan would.
    rev = rs.topo_order[::-1]
    order = rev[np.argsort(-rs.depth[rev], kind="stable")]
    sub = portion
    for level in np.split(order, np.cumsum(np.bincount(rs.depth)[:0:-1]))[:-1]:
        np.add.at(sub, rs.parent[level], sub[level])

    lam = np.zeros(m, dtype=np.float64)
    below = rs.parent_edge >= 0
    lam[rs.parent_edge[below]] = sub[below]
    return EdgePrep(
        root=rs.root,
        lambda_gamma=_freeze(lam),
        edge_lengths=g.edge_w,
    )

