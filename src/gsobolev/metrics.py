"""Closed-form distances between node-supported measures on a shared graph.

The regularized Sobolev IPM of order ``p`` is, for node-supported measures,
a single weighted sum over edges:

    S_p(mu, nu) ** p  =  sum_e beta_e(p) * |Gamma_mu[e] - Gamma_nu[e]| ** p

where ``Gamma`` is the cumulative edge vector of a measure and ``beta_e(p)``
integrates the regularizing weight ``(1 + downstream length)`` along the
edge.  The Sobolev transport baseline replaces ``beta_e(p)`` by the raw edge
length.  The order ``p = inf`` takes a weighted maximum instead of a sum.

Per-pair evaluation touches only the edges on the supports' root paths, so
its cost is independent of the ambient graph size once a root is prepared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse._sparsetools import csr_matvec, csr_minus_csr, csr_row_index

from .errors import InvalidExponent, RootMismatch
from .graph import EdgePrep, Graph, RootedStructure, lambda_gamma, shortest_path_tree
from .measures import DiscreteMeasure, GammaTable, SparseEdgeVector, gamma_mass

VARIANT_SOBOLEV_IPM = "regularized_sobolev_ipm"
VARIANT_SOBOLEV_TRANSPORT = "sobolev_transport"
VARIANTS = (VARIANT_SOBOLEV_IPM, VARIANT_SOBOLEV_TRANSPORT)


def _check_order(p: float, *, allow_inf: bool = False) -> float:
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise InvalidExponent(f"order p must satisfy p >= 1, got {p!r}")
    if math.isinf(p) and not allow_inf:
        raise InvalidExponent("order p must be finite here; use the max-form variant")
    return p


@dataclass(frozen=True)
class EquivalenceConstants:
    """Tight two-sided comparison constants against the unregularized norm.

    ``c1 * ||f'||_Lp <= ||f||_(weighted W1,p) <= c2 * ||f'||_Lp`` for the
    graph's total length ``L``; ``degenerate`` flags ``L == 0`` (single-node
    graph), where the lower constant collapses to zero.
    """

    c1: float
    c2: float
    degenerate: bool


def equivalence_constants(total_length: float, p: float) -> EquivalenceConstants:
    p = _check_order(p)
    L = float(total_length)
    if L < 0.0:
        raise ValueError(f"total length must be nonnegative, got {L!r}")
    c1 = (min(1.0, L ** (p - 1.0)) / (1.0 + L**p)) ** (1.0 / p)
    c2 = max(1.0, L ** (p - 1.0)) ** (1.0 / p)
    return EquivalenceConstants(c1=c1, c2=c2, degenerate=(L == 0.0))


def _cached_weights(prep: EdgePrep, key: float, make) -> np.ndarray:
    cached = prep.beta_cache.get(key)
    if cached is not None:
        return cached
    weights = make()
    weights.flags.writeable = False
    return prep.beta_cache.setdefault(key, weights)


def beta_weights(prep: EdgePrep, p: float) -> np.ndarray:
    """Per-edge closed-form weights for order ``p`` (cached on ``prep``).

    For edge ``e`` with length ``w`` and downstream length ``g``, the weight
    ``integral_0^1 (1 + g + w t)**(1-p) w dt`` equals, with ``q = 2 - p``::

        (1 + g)**q * expm1(q * log1p(w / (1 + g))) / q     (q != 0)
        log1p(w / (1 + g))                                 (q == 0)

    The first form is ``((1 + g + w)**q - (1 + g)**q) / q`` without its
    cancellation, so it stays accurate for orders arbitrarily close to 2
    and tends to the second.  Order 1 returns ``w`` exactly, so the transport
    baseline and this distance coincide bit for bit.
    """
    p = _check_order(p)

    def make() -> np.ndarray:
        w = prep.edge_lengths
        if p == 1.0:
            return w.copy()
        scale = 1.0 + prep.lambda_gamma
        log_ratio = np.log1p(w / scale)
        q = 2.0 - p
        if q == 0.0:
            return log_ratio
        return scale**q * np.expm1(q * log_ratio) / q

    return _cached_weights(prep, p, make)


def _edge_weights(prep: EdgePrep, p: float, variant: str) -> np.ndarray:
    """The per-edge weight vector of a (variant, order): ``beta(p)`` for the
    regularized IPM, raw edge lengths for the transport baseline, and
    ``1 / (1 + downstream length)`` for the IPM's max form at ``p = inf``.

    The weight along an edge is largest at the far end of the edge's
    downstream region, where it equals ``1 + lambda_gamma[e]``; the essential
    supremum of the weighted difference is therefore attained there.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    p = _check_order(p, allow_inf=variant == VARIANT_SOBOLEV_IPM)
    if variant == VARIANT_SOBOLEV_TRANSPORT:
        return prep.edge_lengths
    if math.isinf(p):
        return _cached_weights(prep, p, lambda: 1.0 / (1.0 + prep.lambda_gamma))
    return beta_weights(prep, p)


def _reduce_pairs(
    indptr: np.ndarray,
    edges: np.ndarray,
    diff: np.ndarray,
    weights: np.ndarray,
    p: float,
) -> np.ndarray:
    """Distances of the pairs whose differences ``Gamma_i - Gamma_j`` are
    the CSR rows ``(indptr, edges, diff)``, one row per pair.

    Within a row, edges come in increasing order.  Each row is reduced on
    its own, sequentially in that order: scipy's ``csr_matvec`` against a
    ones vector adds a row's terms one by one from 0.0, and multiplying by
    1.0 is exact, so a pair's bits never depend on the batch it sits in.
    Zero differences may be present or absent: adding ``+0.0`` to a
    nonnegative sum, or a zero to a max, changes no bit.  A row without
    entries is at distance 0.  ``diff`` is overwritten with the terms.
    """
    n_pairs = indptr.size - 1
    terms = np.abs(diff, out=diff)
    if math.isinf(p):
        terms *= weights[edges]
        out = np.zeros(n_pairs)
        filled = np.flatnonzero(np.diff(indptr))
        if filled.size:
            out[filled] = np.maximum.reduceat(terms, indptr[filled])
        return out
    if p != 1.0:
        terms **= p
    terms *= weights[edges]
    total = np.zeros(n_pairs)
    column = np.zeros(terms.size, dtype=indptr.dtype)
    csr_matvec(n_pairs, 1, indptr, column, terms, np.ones(1), total)
    return total if p == 1.0 else total ** (1.0 / p)


def _pair_distance(
    prep: EdgePrep, u: SparseEdgeVector, v: SparseEdgeVector, p: float, variant: str
) -> float:
    weights = _edge_weights(prep, p, variant)
    if not prep.root == u.root == v.root:
        raise RootMismatch(f"roots differ: prep {prep.root}, vectors {u.root} and {v.root}")
    size = u.edge_ids.size + v.edge_ids.size
    indptr, edges, diff = np.empty(2, np.int64), np.empty(size, np.int64), np.empty(size)
    csr_minus_csr(
        1, weights.size,
        np.array([0, u.edge_ids.size], np.int64), u.edge_ids, u.values,
        np.array([0, v.edge_ids.size], np.int64), v.edge_ids, v.values,
        indptr, edges, diff,
    )
    stored = indptr[1]
    return float(_reduce_pairs(indptr, edges[:stored], diff[:stored], weights, p)[0])


# Stored entries of Gamma[first] plus Gamma[second] per block of a batch:
# small enough that a block's gathered rows, merge and terms stay in cache.
_BLOCK_ENTRIES = 1 << 15


def _rows(rows, n: int) -> np.ndarray:
    """``rows`` as indices in ``[0, n)``: negative rows wrap, and rows
    outside ``[-n, n)`` raise ``IndexError`` before any kernel reads them."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1)
    if rows.size and not (-n <= rows.min() and rows.max() < n):
        bad = rows[(rows < -n) | (rows >= n)][0]
        raise IndexError(f"row {bad} outside [-{n}, {n})")
    return np.where(rows < 0, rows + n, rows)


def pair_distances(
    prep: EdgePrep,
    table: GammaTable,
    first: np.ndarray,
    second: np.ndarray,
    p: float,
    variant: str = VARIANT_SOBOLEV_IPM,
) -> np.ndarray:
    """Distances between rows ``first[k]`` and ``second[k]`` of ``table``
    for every ``k``, under one prepared root.

    Pairs run in blocks of about ``_BLOCK_ENTRIES`` stored entries.  Per
    block, scipy's CSR kernels work on the table's own arrays: one gathers
    the ``first`` and the ``second`` rows, one merges them into each pair's
    differences with edges sorted and exact zeros dropped, and
    :func:`_reduce_pairs` sums each pair.  Their outputs go into buffers
    allocated once, sized from the blocks' exact entry counts; the kernels
    do not bounds-check, so rows are validated first.  Every entry equals
    the per-pair functions' value bit for bit.
    """
    weights = _edge_weights(prep, p, variant)
    if prep.root != table.root:
        raise RootMismatch(f"roots differ: prep {prep.root}, table {table.root}")
    first, second = _rows(first, len(table)), _rows(second, len(table))
    if first.size != second.size:
        raise ValueError(f"{first.size} first rows against {second.size} second rows")
    out = np.empty(first.size)
    if first.size == 0:
        return out
    nnz = np.diff(table.indptr)
    a_end, b_end = (np.concatenate([[0], np.cumsum(nnz[rows])]) for rows in (first, second))
    cost = a_end[1:] + b_end[1:]
    cuts = np.searchsorted(cost, np.arange(_BLOCK_ENTRIES, cost[-1], _BLOCK_ENTRIES))
    bounds = np.unique(np.concatenate([[0], cuts, [first.size]]))
    a_size, b_size = (np.diff(end[bounds]).max() for end in (a_end, b_end))
    a_edges, a_values = np.empty(a_size, np.int64), np.empty(a_size)
    b_edges, b_values = np.empty(b_size, np.int64), np.empty(b_size)
    indptr = np.empty(np.diff(bounds).max() + 1, np.int64)
    edges, diff = np.empty(a_size + b_size, np.int64), np.empty(a_size + b_size)
    layout = table.indptr, table.edge_ids, table.values
    for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        k = stop - start
        csr_row_index(k, first[start:stop], *layout, a_edges, a_values)
        csr_row_index(k, second[start:stop], *layout, b_edges, b_values)
        csr_minus_csr(
            k, weights.size,
            a_end[start : stop + 1] - a_end[start], a_edges, a_values,
            b_end[start : stop + 1] - b_end[start], b_edges, b_values,
            indptr, edges, diff,
        )
        stored = indptr[k]
        out[start:stop] = _reduce_pairs(indptr[: k + 1], edges[:stored], diff[:stored], weights, p)
    return out


def sobolev_ipm_distance(
    prep: EdgePrep, u: SparseEdgeVector, v: SparseEdgeVector, p: float
) -> float:
    """Regularized Sobolev IPM of order ``p`` from cumulative vectors.  At
    ``p = inf`` it is the max over touched edges of
    ``|difference| / (1 + downstream length)``."""
    return _pair_distance(prep, u, v, p, VARIANT_SOBOLEV_IPM)


def sobolev_transport_distance(
    prep: EdgePrep, u: SparseEdgeVector, v: SparseEdgeVector, p: float
) -> float:
    """Unregularized transport baseline: edge lengths as weights."""
    return _pair_distance(prep, u, v, p, VARIANT_SOBOLEV_TRANSPORT)


def prepare_root(g: Graph, root: int) -> tuple[RootedStructure, EdgePrep]:
    """One-stop preprocessing for a root: tree plus downstream lengths."""
    rs = shortest_path_tree(g, root)
    return rs, lambda_gamma(g, rs)


def sample_roots(g: Graph, k: int, seed: int) -> list[int]:
    """Draw ``k`` distinct roots uniformly from the node set, seeded."""
    if not 1 <= k <= g.node_count:
        raise ValueError(f"need 1 <= k <= {g.node_count}, got {k}")
    rng = np.random.default_rng(seed)
    return [int(x) for x in rng.choice(g.node_count, size=k, replace=False)]


def measure_distance(
    rs: RootedStructure,
    prep: EdgePrep,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    p: float,
    variant: str = VARIANT_SOBOLEV_IPM,
) -> float:
    """Distance between two measures under one prepared root."""
    return _pair_distance(prep, gamma_mass(rs, mu), gamma_mass(rs, nu), p, variant)


def sliced_distance(
    g: Graph,
    roots: list[int] | tuple[int, ...],
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    p: float,
    variant: str = VARIANT_SOBOLEV_IPM,
    prepared: dict | None = None,
) -> float:
    """Arithmetic mean of per-root distances over a root list, summed in
    root order from 0.0 as ``distance`` and ``gram`` sum them: the same bits.

    An average of metrics is again a metric.  ``prepared`` may carry a
    ``root -> (RootedStructure, EdgePrep)`` cache reused across calls, so the
    per-root preprocessing is paid once per root, not once per pair.
    """
    if not roots:
        raise ValueError("need at least one root")
    p = _check_order(p, allow_inf=variant == VARIANT_SOBOLEV_IPM)
    cache = prepared if prepared is not None else {}
    total = 0.0
    for root in roots:
        hit = cache.get(root)
        if hit is None:
            hit = prepare_root(g, int(root))
            cache[root] = hit
        rs, prep = hit
        total += measure_distance(rs, prep, mu, nu, p, variant)
    return total / len(roots)
