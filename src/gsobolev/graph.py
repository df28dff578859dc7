"""Shared metric graph, rooted shortest-path structure, and edge preprocessing.

Everything downstream starts from three immutable objects.  A :class:`Graph`
is a validated, connected, positively weighted simple graph whose edge ids are
stable file/constructor order.  A :class:`RootedStructure` records the
shortest-path tree grown from a chosen root, with deterministic handling of
equal-length path ties.  An :class:`EdgePrep` carries, for every edge of
that tree, the total length of the region of the graph whose root paths
traverse that edge (the downstream length), which is the only
graph-dependent quantity the closed-form distances need.

All arrays are frozen after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse._sparsetools import csr_plus_csr, csr_tocsc
from scipy.sparse.csgraph import breadth_first_order, connected_components
from scipy.sparse.csgraph import dijkstra as _sp_dijkstra

from .errors import Disconnected, DuplicateEdge, NonPositiveWeight, ParseError, SizeLimitExceeded
from .textio import read_table, row_line, significant_lines, utf8_input, write_rows

# Two root-path lengths within this relative tolerance count as tied.
TIE_RTOL = 1e-12

# The most nodes whose pair keys lo * n + hi all fit in int64; a graph with
# more (so over 3e9 edges, some 73 GB of edge arrays) is refused.
_KEYED_NODES = math.isqrt(np.iinfo(np.int64).max)

# Edges per pass of the tree's candidate test and of lambda's shares, so
# their scratch does not grow with the edge count.
_EDGE_CHUNK = 1 << 16


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _index_dtype(n: int, m: int) -> type:
    """The dtype of a graph's node and edge ids and of its trees' index
    arrays: int32 while ``n`` nodes and ``2 * m`` arcs fit it, else int64."""
    return np.int32 if max(n, 2 * m) <= np.iinfo(np.int32).max else np.int64


def _edge_chunks(m: int) -> list[slice]:
    """Consecutive runs of ``_EDGE_CHUNK`` edge ids covering ``[0, m)``; one
    empty run when there are no edges."""
    return [slice(s, s + _EDGE_CHUNK) for s in range(0, max(m, 1), _EDGE_CHUNK)]


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected connected graph with positive edge lengths.

    Edge ``i`` joins ``edge_u[i]`` and ``edge_v[i]`` with length ``edge_w[i]``.
    Edge ids are construction order and never change, so they are stable cache
    keys.  Self-loops and repeated unordered pairs are rejected (both violate
    the simple-graph invariant and raise :class:`DuplicateEdge`).

    ``edge_u``, ``edge_v`` and the adjacency's index arrays hold node and
    edge ids in one dtype: int32 while the node count and twice the edge
    count fit it, int64 otherwise.  Endpoints of any integer dtype are
    taken; anything else is converted to int64 first.
    """

    node_count: int
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_w: np.ndarray

    def __post_init__(self) -> None:
        n = self.node_count
        if n < 1:
            raise ValueError("graph needs at least one node")
        u, v = (
            x.reshape(-1) if isinstance(x, np.ndarray) and x.dtype.kind == "i"
            else np.asarray(x, dtype=np.int64).reshape(-1)
            for x in (self.edge_u, self.edge_v)
        )
        w = np.asarray(self.edge_w, dtype=np.float64).reshape(-1)
        if not (u.size == v.size == w.size):
            raise ValueError("edge arrays must share one length")
        if u.size and (u.min() < 0 or v.min() < 0 or max(u.max(), v.max()) >= n):
            raise ValueError("edge endpoint outside [0, node_count)")
        idx = _index_dtype(n, u.size)
        u, v = u.astype(idx, copy=False), v.astype(idx, copy=False)
        bad = ~(np.isfinite(w) & (w > 0.0))
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise NonPositiveWeight(
                f"edge {i} ({u[i]}-{v[i]}) has length {float(w[i])}; "
                f"lengths must be positive and finite"
            )
        loops = u == v
        if loops.any():
            i = int(np.flatnonzero(loops)[0])
            raise DuplicateEdge(f"edge {i} is a self-loop at node {u[i]}")
        del bad, loops
        if u.size < n - 1:
            # Too few edges to connect n nodes: count the components among the
            # touched nodes alone, so no n-sized array is built.
            touched, ends = np.unique(np.concatenate([u, v]), return_inverse=True)
            arcs = (ends[: u.size], ends[u.size :])
            adj = csr_matrix((np.ones(u.size), arcs), shape=(touched.size,) * 2)
            parts, _ = connected_components(adj, directed=False)
            n_comp = parts + n - touched.size
            raise Disconnected(f"graph has {n_comp} components, expected 1")
        if n > _KEYED_NODES:
            raise SizeLimitExceeded(
                f"graph has {n:,} nodes, above the {_KEYED_NODES:,} whose node "
                f"pair keys fit in int64"
            )
        object.__setattr__(self, "edge_u", _freeze(u))
        object.__setattr__(self, "edge_v", _freeze(v))
        object.__setattr__(self, "edge_w", _freeze(w))
        csr = _adjacency(n, u, v, w)
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


def _adjacency(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> csr_matrix:
    """The symmetric ``n x n`` CSR adjacency of the edges ``(u, v, w)``,
    each row's columns increasing; a repeated node pair raises
    :class:`DuplicateEdge`.

    One sort of the node pairs by the int64 key ``lo * n + hi``, made with no
    int64 copy of the endpoints: equal neighbours are repeats, and the sorted
    keys are the strict upper triangle, row by row.  scipy's ``csr_tocsc``
    lays out its transpose, the strict lower triangle, rows sorted too, and
    ``csr_plus_csr`` merges the two row by row: each row holds its lower
    arcs, then its upper ones, as scipy's own COO build gives them.  Both
    carry edge id + 1 in the index dtype, which is never 0, so the merge
    drops no arc; each arc's length is gathered once, at the end, in runs
    of ``_EDGE_CHUNK`` arcs.
    """
    key = np.minimum(u, v, dtype=np.int64)
    key *= n
    key += np.maximum(u, v)
    order = np.argsort(key)
    key = key[order]
    dup = np.flatnonzero(key[1:] == key[:-1])
    if dup.size:
        a, b = divmod(int(key[dup[0]]), n)
        raise DuplicateEdge(f"node pair ({a}, {b}) appears more than once")
    m, idx = u.size, u.dtype
    ids = np.add(order, 1, dtype=idx)
    del order
    upper = (
        np.searchsorted(key, np.arange(n + 1) * n).astype(idx),
        np.remainder(key, n, out=key).astype(idx, copy=False),
        ids,
    )
    del key, ids
    lower = np.empty(n + 1, idx), np.empty(m, idx), np.empty(m, idx)
    csr_tocsc(n, n, *upper, *lower)
    indptr, indices, arcs = np.empty(n + 1, idx), np.empty(2 * m, idx), np.empty(2 * m, idx)
    csr_plus_csr(n, n, *upper, *lower, indptr, indices, arcs)
    del upper, lower
    data = np.empty(2 * m)
    for e in _edge_chunks(2 * m):  # each run's ids made intp once, not all at once
        data[e] = w[np.subtract(arcs[e], 1, dtype=np.intp)]
    return csr_matrix((data, indices, indptr), shape=(n, n))


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
    u, v = edges["u"], edges["v"]
    outside = np.flatnonzero((u < 0) | (u >= n) | (v < 0) | (v >= n))
    if outside.size:
        bad = row_line(path, int(outside[0]), start=lineno + 1)
        raise ParseError(f"{path}:{bad}: node id outside [0, {n})")
    # The ids are in range, so the index dtype holds them; the rows are
    # freed before the adjacency is built.
    idx = _index_dtype(n, m)
    u, v, w = u.astype(idx), v.astype(idx), np.ascontiguousarray(edges["w"])
    del edges
    return Graph(n, u, v, w)


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
    the smallest node id wins, and ``ties`` lists those nodes, ascending.
    ``tree_edges`` lists the ``n - 1`` tree edge ids, ascending, and
    ``rank[x]`` is the position there of the edge entering ``x`` (``-1`` at
    the root): the per-root arrays of :class:`EdgePrep` and the columns of a
    Γ table are indexed by this rank, which grows with the edge id.
    ``depth`` counts the tree edges on each node's root path, and
    ``lift[k][x]`` is the node ``2**k`` tree steps above ``x`` (the root once
    the path ends), kept for every ``k`` with ``2**k`` below the largest
    depth.  ``parent``, ``parent_edge``, ``tree_edges``, ``rank``, ``depth``
    and ``lift`` hold ids in the graph's index dtype, that of
    ``graph.edge_u``: int32 while the node count and twice the edge count
    fit it, int64 otherwise.
    """

    graph: Graph
    root: int
    dist: np.ndarray
    parent: np.ndarray
    parent_edge: np.ndarray
    tree_edges: np.ndarray
    rank: np.ndarray
    depth: np.ndarray
    lift: tuple[np.ndarray, ...]
    ties: np.ndarray
    _gamma_cache: dict = field(default_factory=dict, repr=False)


@np.errstate(over="ignore", invalid="ignore")  # a node left without a parent is refused below
def shortest_path_tree(g: Graph, root: int) -> RootedStructure:
    """Grow the shortest-path tree of ``g`` from ``root``.

    Distances come from Dijkstra's algorithm.  Parents are then derived in a
    deterministic pass with one test per edge, oriented from its nearer end
    ``a`` to its farther end ``b``: ``a`` is a candidate parent of ``b`` when
    ``dist[a] < dist[b]`` and ``dist[a] + w_ab`` matches ``dist[b]`` within
    ``TIE_RTOL * max(1, dist[b])``; the smallest candidate id is kept, and
    the nodes with more than one candidate are recorded as ``ties``.  This
    makes the recorded tree a pure function of the graph and the root,
    independent of heap order.  The kept edges, taken in the edge order the
    test runs in, are ``tree_edges``, and each one's place among them is its
    child's ``rank``.  A node left without a candidate (lengths that
    overflow or round away) raises :class:`NonPositiveWeight`.
    """
    n = g.node_count
    if not 0 <= root < n:
        raise ValueError(f"root {root} outside [0, {n})")
    dist = _sp_dijkstra(g._csr, directed=True, indices=root)
    # Connectivity is a Graph invariant, so a distance is inf only by overflow.
    eu, ev, w = g.edge_u, g.edge_v, g.edge_w
    found = []  # edges whose nearer end is a candidate parent of the farther one
    for e in _edge_chunks(g.edge_count):
        du, dv = dist[eu[e]], dist[ev[e]]
        near, far = np.minimum(du, dv), np.maximum(du, dv)
        tight = np.abs(near + w[e] - far) <= TIE_RTOL * np.maximum(1.0, far)
        found.append(np.flatnonzero((near < far) & tight) + e.start)
    found = np.concatenate(found)
    # Each child keeps its smallest candidate and the one edge joining them.
    u, v = eu[found], ev[found]
    flip = dist[u] > dist[v]
    child, cand = np.where(flip, u, v), np.where(flip, v, u)
    del u, v, flip
    counts = np.bincount(child, minlength=n)
    orphans = np.flatnonzero(counts == 0)
    if orphans.size > 1:  # the root is always one
        x = int(orphans[orphans != root][0])
        raise NonPositiveWeight(
            f"root {root}: node {x} at distance {float(dist[x])} has no shortest-path "
            f"parent; the edge lengths overflow or round away"
        )
    idx = eu.dtype
    parent = np.full(n, n, dtype=idx)
    np.minimum.at(parent, child, cand)
    won = cand == parent[child]
    # found runs in edge order, so the tree edges come out ascending, and
    # their ranks need no sort
    tree_edges, child = found[won].astype(idx), child[won]
    del found, cand, won
    parent_edge = np.full(n, -1, dtype=idx)
    parent_edge[child] = tree_edges
    rank = np.full(n, -1, dtype=idx)
    rank[child] = np.arange(tree_edges.size, dtype=idx)
    del child
    parent[counts == 0] = -1

    # Depth by pointer doubling: in round k, ``anc`` jumps 2^k tree steps and
    # ``depth`` counts the edges from each node to its ``anc``.
    anc = parent.copy()
    anc[root] = root
    depth = np.ones(n, dtype=idx)
    depth[root] = 0
    lift = []
    while (anc != root).any():
        lift.append(_freeze(anc))
        depth += depth[anc]
        anc = anc[anc]

    return RootedStructure(
        graph=g,
        root=root,
        dist=_freeze(dist),
        parent=_freeze(parent),
        parent_edge=_freeze(parent_edge),
        tree_edges=_freeze(tree_edges),
        rank=_freeze(rank),
        depth=_freeze(depth),
        lift=tuple(lift),
        ties=_freeze(np.flatnonzero(counts > 1)),
    )


@dataclass(frozen=True, eq=False)
class EdgePrep:
    """Per-tree-edge preprocessing for closed-form distances under one root.

    Edges outside the shortest-path tree are inert in the closed forms (no
    root path crosses them), so every vector here has one entry per tree
    edge, ``n - 1`` in all, in the order of the tree's ``tree_edges``: entry
    ``r`` belongs to graph edge ``tree_edges[r]``, the edge of rank ``r``.
    ``lambda_gamma[r]`` is its downstream length: the total length of
    everything reached from the root through it (full lengths of tree edges
    strictly below it plus the breakpoint shares of every other edge hanging
    off that subtree), and ``edge_lengths[r]`` its length.  ``beta_cache``
    maps each requested order ``p`` other than 1 to the frozen weight
    vector, ``beta(p)`` or, at ``p = inf``, ``1 / (1 + lambda_gamma)``;
    order 1 has no entry, since ``beta(1)`` is ``edge_lengths`` itself.
    """

    root: int
    lambda_gamma: np.ndarray
    edge_lengths: np.ndarray
    beta_cache: dict = field(default_factory=dict, repr=False)


@np.errstate(over="ignore", invalid="ignore")  # a sum that overflows is refused below
def lambda_gamma(rs: RootedStructure) -> EdgePrep:
    """Compute every tree edge's downstream length under the tree ``rs`` of
    the graph ``rs.graph``, with one vectorized step per tree level, in the
    rank order of ``rs.tree_edges``.

    Each edge's interior splits at the point equidistant from the root via
    either endpoint; the share reached through endpoint ``u`` of edge
    ``(u, v)`` has length ``w * clamp((dist[v] - dist[u] + w) / (2w), 0, 1)``.
    Summing the shares attached to each node and accumulating them up the
    tree, level by level from the deepest, yields at node ``x`` the
    downstream length of the tree edge entering ``x``; one that overflows
    raises :class:`NonPositiveWeight`.
    """
    g = rs.graph
    n, m = g.node_count, g.edge_count
    eu, ev, w = g.edge_u, g.edge_v, g.edge_w
    portion = np.zeros(n, dtype=np.float64)
    # Every u-side share is added before any v-side one, in edge order.
    for u_side in (True, False):
        for e in _edge_chunks(m):
            # as intp once: numpy converts any other index dtype on every use
            u, v = eu[e].astype(np.intp, copy=False), ev[e].astype(np.intp, copy=False)
            gap = rs.dist[v] - rs.dist[u]  # w - gap is (du - dv) + w to the bit
            # (gap + w) / 2w formed from halves, which do not overflow; halving
            # is exact above 2**-1021, so the quotient is the same to the bit
            gap *= 0.5
            half = w[e] * 0.5
            share = np.add(gap, half, out=gap) if u_side else np.subtract(half, gap, out=gap)
            # clip((dv - du + w) / 2w, 0, 1) * w, in place
            np.clip(np.divide(share, w[e], out=share), 0.0, 1.0, out=share)
            share *= w[e]
            np.add.at(portion, u if u_side else v, share)

    # Subtree sums sub[x] = portion[x] + sum of sub over the children of x,
    # one tree level at a time from the deepest, each level by decreasing
    # distance, then id.  np.add.at adds one by one, so every parent gets its
    # children in the order of a scan over the nodes sorted by distance,
    # depth and id, taken backwards.
    order = np.lexsort((rs.dist, rs.depth))[::-1]
    sub = portion
    for level in np.split(order, np.cumsum(np.bincount(rs.depth)[:0:-1]))[:-1]:
        np.add.at(sub, rs.parent[level], sub[level])

    below = rs.rank >= 0
    over = np.flatnonzero(below & ~np.isfinite(sub))
    if over.size:
        x, e = int(over[0]), int(rs.parent_edge[over[0]])
        raise NonPositiveWeight(
            f"root {rs.root}: edge {e} ({eu[e]}-{ev[e]}) has downstream length "
            f"{float(sub[x])}; the edge lengths overflow in its sum"
        )
    lam = np.empty(n - 1, dtype=np.float64)
    lam[rs.rank[below]] = sub[below]
    return EdgePrep(
        root=rs.root,
        lambda_gamma=_freeze(lam),
        edge_lengths=_freeze(w[rs.tree_edges]),
    )

