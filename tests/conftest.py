"""Shared fixtures and the acceptance-summary hook."""

from __future__ import annotations

import io
import tracemalloc

import numpy as np
import pytest

from gsobolev import Graph

# (criterion number, description, passed) collected by the acceptance tests.
_ACCEPTANCE: list[tuple[int, str, bool]] = []


@pytest.fixture
def acceptance():
    """Recorder: acceptance tests report one pass/fail line per criterion."""

    def record(num: int, desc: str, ok: bool) -> None:
        _ACCEPTANCE.append((num, desc, ok))
        print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {desc}")

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num, desc, ok in sorted(_ACCEPTANCE):
        terminalreporter.write_line(
            f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {desc}"
        )


@pytest.fixture
def path_graph() -> Graph:
    """Unit path 0 - 1 - 2 (root 0, a = 1, b = 2 in the examples)."""
    return Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])


@pytest.fixture
def square_cycle() -> Graph:
    """Unit 4-cycle; from root 0 node 2 has two equal-length root paths."""
    return Graph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])


@pytest.fixture
def triangle() -> Graph:
    """Unit triangle; the far edge splits at its midpoint from root 0."""
    return Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])


FIGURE_EDGES = [
    (0, 1), (0, 2), (0, 5), (4, 3), (1, 4),
    (0, 6), (0, 7), (0, 8), (2, 6), (4, 9),
    (2, 7), (2, 8), (5, 6), (5, 7), (6, 8),
]


@pytest.fixture
def figure_graph() -> Graph:
    """Ten nodes, fifteen unit edges, laid out so that from root node 0 the
    region reached through edge (1, 4) is exactly nodes {3, 4, 9} with the
    two unit edges (4, 3) and (4, 9); edge ids follow the list order."""
    return Graph.from_edges(10, [(u, v, 1.0) for u, v in FIGURE_EDGES])


def random_weighted_graph(seed: int, n_lo: int = 8, n_hi: int = 40) -> Graph:
    """Connected random graph with generic (tie-free) real weights."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_lo, n_hi + 1))
    edges = [(int(rng.integers(0, i)), i, float(rng.uniform(0.2, 2.0))) for i in range(1, n)]
    have = {(min(u, v), max(u, v)) for u, v, _ in edges}
    extras = int(rng.integers(0, n))
    for _ in range(extras):
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u == v or (min(u, v), max(u, v)) in have:
            continue
        have.add((min(u, v), max(u, v)))
        edges.append((u, v, float(rng.uniform(0.2, 2.0))))
    return Graph.from_edges(n, edges)


def path_of(n, seed=0):
    """Path 0 - 1 - ... - (n-1) with generic lengths."""
    w = np.random.default_rng(seed).uniform(0.5, 2.0, n - 1)
    return Graph(n, np.arange(n - 1), np.arange(1, n), w)


def grid_of(side, length=0.1):
    """Grid of ``side`` x ``side`` nodes, node ``r * side + c``, every edge
    ``length`` long: most nodes have several shortest root paths, and at
    0.1 siblings share their distance and sums of the shares round, so the
    order in which a parent adds its children shows in the bits."""
    ids = np.arange(side * side).reshape(side, side)
    u = np.concatenate([ids[:, :-1].ravel(), ids[:-1].ravel()])
    v = np.concatenate([ids[:, 1:].ravel(), ids[1:].ravel()])
    return Graph(side * side, u, v, np.full(u.size, length))


def edge_id(g: Graph, a: int, b: int) -> int:
    """Id of the edge of ``g`` joining ``a`` and ``b`` (order-insensitive)."""
    hit = ((g.edge_u == a) & (g.edge_v == b)) | ((g.edge_u == b) & (g.edge_v == a))
    ids = np.flatnonzero(hit)
    if ids.size != 1:
        raise KeyError(f"no edge joins nodes {a} and {b}")
    return int(ids[0])


def root_path_edges(rs, x: int) -> list[int]:
    """Edge ids of the recorded root path to ``x``, root first, by a naive
    walk up ``rs.parent``: a reference for the tree and the Γ tables."""
    if not 0 <= x < rs.graph.node_count:
        raise ValueError(f"node {x} outside [0, {rs.graph.node_count})")
    out: list[int] = []
    v = x
    while v != rs.root:
        out.append(int(rs.parent_edge[v]))
        v = int(rs.parent[v])
    out.reverse()
    return out


def traced_peak(fn):
    """``fn()`` under ``tracemalloc``: its result, the traced peak during the
    call and the traced bytes still held when it returns."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
        return result, peak, held
    finally:
        tracemalloc.stop()


def read_matrix_csv(path: str) -> np.ndarray:
    """Read what ``kernels.write_matrix_csv`` writes, as a symmetric array."""
    with open(path, "r", encoding="utf-8") as fh:
        header, _, body = fh.read().lstrip().partition("\n")
    if not header:
        raise ValueError(f"{path}: empty matrix file")
    dim = int(header)
    full = np.zeros((0, 0))
    if body.strip():  # np.loadtxt warns on input without data
        full = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    if len(full) != dim:
        raise ValueError(f"{path}: expected {dim} rows, found {len(full)}")
    if full.shape != (dim, dim):
        raise ValueError(f"{path}: expected a {dim}x{dim} matrix")
    return (full + full.T) / 2.0
