"""Closed-form distances between node-supported measures on a shared graph.

The regularized Sobolev IPM of order ``p`` is, for node-supported measures,
a single weighted sum over edges:

    S_p(mu, nu) ** p  =  sum_e beta_e(p) * |Gamma_mu[e] - Gamma_nu[e]| ** p

where ``Gamma`` is the cumulative edge vector of a measure and ``beta_e(p)``
integrates the regularizing weight ``(1 + downstream length)`` along the
edge.  The Sobolev transport baseline replaces ``beta_e(p)`` by the raw edge
length.  The order ``p = inf`` takes a weighted maximum instead of a sum.

Per-pair evaluation touches only the edges on the supports' root paths, so
once a root is prepared its cost follows the supports' sizes times their
root-path depths, not the ambient graph size.
"""

from __future__ import annotations

import contextvars
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.sparse._sparsetools import csr_matvec, csr_minus_csr, csr_row_index

from .errors import InvalidExponent, NonPositiveWeight, RootMismatch
from .graph import EdgePrep, Graph, RootedStructure, lambda_gamma, shortest_path_tree
from .measures import DiscreteMeasure, GammaTable, gamma_mass, gamma_masses

VARIANT_SOBOLEV_IPM = "regularized_sobolev_ipm"
VARIANT_SOBOLEV_TRANSPORT = "sobolev_transport"
VARIANTS = (VARIANT_SOBOLEV_IPM, VARIANT_SOBOLEV_TRANSPORT)


def _check_order(p: float, *, allow_inf: bool = False) -> float:
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise InvalidExponent(f"order p must satisfy p >= 1, got {p!r}")
    if math.isinf(p) and not allow_inf:
        raise InvalidExponent(f"order p must be finite here, got {p!r}")
    return p


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
    cached = prep.beta_cache.get(p)
    if cached is not None:
        return cached
    w = prep.edge_lengths
    if p == 1.0:
        weights = w.copy()
    else:
        scale = 1.0 + prep.lambda_gamma
        weights = np.log1p(w / scale)
        q = 2.0 - p
        if q != 0.0:
            weights = scale**q * np.expm1(q * weights) / q
    weights.flags.writeable = False
    return prep.beta_cache.setdefault(p, weights)


def _edge_weights(prep: EdgePrep, p: float, variant: str) -> np.ndarray:
    """The per-edge vector :func:`_reduce_pairs` takes for a (variant,
    order): ``beta(p)`` for the regularized IPM, raw edge lengths for the
    transport baseline, and the downstream lengths themselves for the IPM's
    max form at ``p = inf``, whose weight ``1 / (1 + downstream length)``
    is computed per gathered entry, so no edge-sized vector is made for it.

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
        return prep.lambda_gamma
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
    its own, sequentially in that order: scipy's ``csr_matvec``, with the
    edge weights as its vector, adds a row's products ``term * weight`` one
    by one from 0.0, so a pair's bits never depend on the batch it sits in.
    This holds only while scipy's build does not fuse ``sum + term * weight``
    into one FMA; ``TestReducePairs::test_rows_equal_sequential_python_sum``
    is the test that catches a build that does.  Zero differences may be
    present or absent: adding ``+0.0`` to a nonnegative sum, or a zero to a
    max, changes no bit.  A row without entries is at distance 0.  ``diff``
    is overwritten with the terms.  At ``p = inf``, ``weights`` are the
    downstream lengths ``lam``, and each term is multiplied by
    ``1.0 / (1.0 + lam[edge])``, made for its own entry.
    """
    n_pairs = indptr.size - 1
    # d * d and |d| * |d| have the same bits, so p = 2 squares d as it is.
    terms = diff if p == 2.0 else np.abs(diff, out=diff)
    if math.isinf(p):
        scale = weights.take(edges)
        scale += 1.0
        terms *= np.divide(1.0, scale, out=scale)
        out = np.zeros(n_pairs)
        filled = np.flatnonzero(np.diff(indptr))
        if filled.size:
            out[filled] = np.maximum.reduceat(terms, indptr[filled])
        return out
    if p != 1.0:
        terms **= p
    total = np.zeros(n_pairs)
    csr_matvec(n_pairs, weights.size, indptr, edges, terms, weights, total)
    return total if p == 1.0 else total ** (1.0 / p)


def _merge_reduce(
    k: int, a: tuple, b: tuple, weights: np.ndarray, p: float,
    indptr: np.ndarray, edges: np.ndarray, diff: np.ndarray,
) -> np.ndarray:
    """Distances of ``k`` pairs, pair ``i`` between row ``i`` of the CSR
    layouts ``a`` and ``b`` (each ``(indptr, edge ids, values)``).  scipy's
    ``csr_minus_csr`` merges them into ``indptr``, ``edges`` and ``diff``
    (unchecked, so they must fit), edges sorted and exact zeros dropped,
    and :func:`_reduce_pairs` sums each pair."""
    csr_minus_csr(k, weights.size, *a, *b, indptr, edges, diff)
    stored = indptr[k]
    return _reduce_pairs(indptr[: k + 1], edges[:stored], diff[:stored], weights, p)


def _pair_distance(
    prep: EdgePrep, u: GammaTable, v: GammaTable, p: float, variant: str
) -> float:
    weights = _edge_weights(prep, p, variant)
    if u.indptr.size != 2 or v.indptr.size != 2:
        raise ValueError(f"need one-row tables, got {len(u)} and {len(v)} rows")
    if not prep.root == u.root == v.root:
        raise RootMismatch(f"roots differ: prep {prep.root}, tables {u.root} and {v.root}")
    size = u.edge_ids.size + v.edge_ids.size
    d = _merge_reduce(
        1, (u.indptr, u.edge_ids, u.values), (v.indptr, v.edge_ids, v.values), weights, p,
        np.empty(2, np.int64), np.empty(size, np.int64), np.empty(size),
    )
    return _refuse_overflow(float(d[0]), p)


def _refuse_overflow(d: float, p: float) -> float:
    """``d``, or :class:`NonPositiveWeight` if it is not finite: the per-pair
    form of :func:`sliced_pair_distances`' refusal."""
    if not math.isfinite(d):
        raise NonPositiveWeight(f"the distance is {d} at p = {p}: its sum overflows")
    return d


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


def _lane_count() -> int:
    """The CPUs this process may run on: one lane of blocks each."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _in_lanes(bounds: np.ndarray, buffers, run_lane) -> None:
    """Deal the blocks ``[bounds[b], bounds[b + 1])`` round-robin to lanes,
    one per CPU the process may use and never more than there are blocks,
    and call ``run_lane(starts, stops, scratch)`` once per lane with its
    blocks and the ``scratch = buffers(starts, stops)`` made for them.
    Every lane's scratch is allocated here, in the calling thread, before
    any thread starts, so none of it comes from a helper thread's own malloc
    arena.  The calling thread runs lane 0 and a thread pool the others,
    each in a copy of the caller's context, so every lane keeps the
    caller's ``np.errstate``; one lane starts no pool.  The pool's threads
    are joined before this returns, also when a lane raises, and a lane's
    exception is raised here."""
    lanes = min(_lane_count(), bounds.size - 1)
    spans = [(bounds[:-1][lane::lanes], bounds[1:][lane::lanes]) for lane in range(lanes)]
    work = [(*span, buffers(*span)) for span in spans]
    if lanes == 1:
        run_lane(*work[0])
        return
    with ThreadPoolExecutor(lanes - 1) as pool:
        helpers = [
            pool.submit(contextvars.copy_context().run, run_lane, *args) for args in work[1:]
        ]
        run_lane(*work[0])
    for helper in helpers:
        helper.result()


class _Triangle:
    """The pairs ``(i, j)``, ``i < j``, of ``n`` rows, in row-major order."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.columns = np.arange(n, dtype=np.int64)
        # where row i's pairs (i, i + 1) .. (i, n - 1) begin; the last is the pair count
        self.begin = self.columns * (2 * n - 1 - self.columns) // 2
        self.size = int(self.begin[-1]) if n else 0

    def locate(self, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows and columns of the pairs numbered ``pairs``."""
        rows = self.begin.searchsorted(pairs, "right") - 1
        return rows, pairs - self.begin[rows] + rows + 1

    def pairs(self, s: int, e: int, out: np.ndarray) -> np.ndarray:
        """Pairs ``[s, e)`` as their rows, then their columns, in the first
        ``2 (e - s)`` entries of the vector ``out``, written one row's run at
        a time, so nothing of the block's size is allocated.  Returns them
        as a ``(2, e - s)`` view."""
        r, c = (int(x) for x in self.locate(s))
        done, k = 0, e - s
        out = out[: 2 * k].reshape(2, k)
        while done < k:
            run = min(k - done, self.n - c)  # the rest of row r, or of the block
            out[0, done : done + run] = r
            out[1, done : done + run] = self.columns[c : c + run]
            done, r, c = done + run, r + 1, r + 2
        return out


def pair_distances(
    prep: EdgePrep,
    table: GammaTable,
    first: np.ndarray | None,
    second: np.ndarray | None,
    p: float,
    variant: str = VARIANT_SOBOLEV_IPM,
    *,
    into: np.ndarray | None = None,
) -> np.ndarray:
    """Distances between rows ``first[k]`` and ``second[k]`` of ``table``
    for every ``k``, under one prepared root, added to ``into``, which is
    returned: a C-ordered writable float64 vector of one value per pair,
    zeros if not given.  With ``first`` and ``second`` both ``None``, the
    pairs are all ``i < j`` of the table's ``n`` rows in row-major order,
    never listed, and ``into`` may also be an ``n x n`` matrix whose
    ``[i, j]`` and ``[j, i]`` both get pair ``(i, j)``, its diagonal left
    as is.

    Both modes share one cutter and one body; a mode supplies only the
    stored entries of its first and its second rows before a pair number
    (running sums over listed rows, a closed form over the triangle) and
    a block's rows and columns, which it writes into a lane's buffer
    (copied from the lists, or built by :class:`_Triangle`).  Blocks end
    before the pair whose running entry count reaches each multiple of
    ``_BLOCK_ENTRIES``, found by bisection.  Per block, one call of scipy's
    ``csr_row_index`` gathers the first rows, then the second rows, from
    the table's own arrays, and :func:`_merge_reduce` turns them into
    distances, as it does for the per-pair functions, whose values every
    entry equals bit for bit.  The kernels do not bounds-check, so rows
    and ``into`` are validated first.

    The blocks are dealt to lanes (:func:`_in_lanes`).  Every kernel
    releases the GIL, so the lanes run at once; a one-block call starts no
    thread.  Each lane has its own buffers, sized from its own blocks' exact
    entry counts, and adds only its own blocks' values.
    """
    weights = _edge_weights(prep, p, variant)
    if prep.root != table.root:
        raise RootMismatch(f"roots differ: prep {prep.root}, table {table.root}")
    n = len(table)
    nnz = np.diff(table.indptr)
    if first is None and second is None:
        tri = _Triangle(n)
        size, pairs, shapes = tri.size, tri.pairs, ((tri.size,), (n, n))
        ends = np.concatenate([[0], np.cumsum(nnz)])  # entries of the rows before each
        # Entries before row i's pairs: each earlier row r once per pair of its
        # own on the first side, and the rows after r on the second.
        a_rows = np.concatenate([[0], np.cumsum((n - 1 - tri.columns) * nnz)])
        b_rows = np.concatenate([[0], np.cumsum(ends[-1] - ends[1:])])

        def entries(before: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            r, c = tri.locate(before)
            return a_rows[r] + (c - r - 1) * nnz[r], b_rows[r] + ends[c] - ends[r + 1]

    else:
        first, second = _rows(first, n), _rows(second, n)
        if first.size != second.size:
            raise ValueError(f"{first.size} first rows against {second.size} second rows")
        size, shapes = first.size, ((first.size,),)
        a_end, b_end = (np.concatenate([[0], np.cumsum(nnz[rows])]) for rows in (first, second))

        def entries(before: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            return a_end[before], b_end[before]

        def pairs(s: int, e: int, out: np.ndarray) -> np.ndarray:
            out = out[: 2 * (e - s)].reshape(2, e - s)
            out[0], out[1] = first[s:e], second[s:e]
            return out

    if into is None:
        into = np.zeros(size)
    if not (
        into.shape in shapes
        and into.dtype == np.float64
        and into.flags.c_contiguous
        and into.flags.writeable
    ):
        wanted = " or ".join(" x ".join(map(str, shape)) for shape in shapes)
        raise ValueError(f"into must be {wanted} writable float64s in C order")
    if size == 0:
        return into
    matrix, flat = into.ndim == 2, into.reshape(-1)
    # The running entry count is nondecreasing, so each cut is a bisection.
    targets = np.arange(_BLOCK_ENTRIES, sum(entries(np.int64(size))), _BLOCK_ENTRIES)
    lo, hi = np.zeros(targets.size, np.int64), np.full(targets.size, size - 1)
    for _ in range(size.bit_length()):
        mid = (lo + hi) // 2
        reached = sum(entries(mid + 1)) >= targets
        lo, hi = np.where(reached, lo, mid + 1), np.where(reached, mid, hi)
    bounds = np.unique(np.concatenate([[0], lo, [size]]))
    layout = table.indptr, table.edge_ids, table.values

    def buffers(starts: np.ndarray, stops: np.ndarray) -> tuple:
        (a0, b0), (a1, b1) = entries(starts), entries(stops)
        entry_size, k_size = (a1 - a0 + b1 - b0).max(), (stops - starts).max()
        return (
            np.empty(2 * k_size, np.int64),  # a block's rows, then its columns
            np.zeros(2 * k_size + 1, np.int64),  # where each starts in `gathered`
            (np.empty(entry_size, np.int64), np.empty(entry_size)),  # gathered rows
            np.empty(k_size + 1, np.int64),  # the merge: row pointers,
            np.empty(entry_size, np.int64),  # edges
            np.empty(entry_size),  # and differences
        )

    def run_lane(starts: np.ndarray, stops: np.ndarray, scratch: tuple) -> None:
        block, ptrs, gathered, *merged = scratch
        for start, stop in zip(starts.tolist(), stops.tolist()):
            k = stop - start
            rows, cols = pairs(start, stop, block)
            nnz.take(block[: 2 * k], out=ptrs[1 : 2 * k + 1], mode="clip")
            np.add.accumulate(ptrs[1 : 2 * k + 1], out=ptrs[1 : 2 * k + 1])
            csr_row_index(2 * k, block[: 2 * k], *layout, *gathered)
            # csr_minus_csr reads row i of a side at [ptr[i], ptr[i + 1]), so
            # the second rows' pointers may go on from where the first rows end
            values = _merge_reduce(
                k, (ptrs[: k + 1], *gathered), (ptrs[k : 2 * k + 1], *gathered),
                weights, p, *merged,
            )
            if matrix:
                flat[rows * n + cols] += values
                flat[cols * n + rows] += values
            else:
                flat[start:stop] += values

    _in_lanes(bounds, buffers, run_lane)
    return into


def sobolev_ipm_distance(prep: EdgePrep, u: GammaTable, v: GammaTable, p: float) -> float:
    """Regularized Sobolev IPM of order ``p`` between two measures given as
    one-row cumulative-vector tables (:func:`gamma_mass`); a table of any
    other row count raises ``ValueError``.  At ``p = inf`` it is the max
    over touched edges of ``|difference| / (1 + downstream length)``."""
    return _pair_distance(prep, u, v, p, VARIANT_SOBOLEV_IPM)


def sobolev_transport_distance(
    prep: EdgePrep, u: GammaTable, v: GammaTable, p: float
) -> float:
    """Unregularized transport baseline: edge lengths as weights, on the
    same one-row tables."""
    return _pair_distance(prep, u, v, p, VARIANT_SOBOLEV_TRANSPORT)


def prepare_root(g: Graph, root: int) -> tuple[RootedStructure, EdgePrep]:
    """One-stop preprocessing for a root of ``g``: its shortest-path tree,
    and the downstream lengths :func:`lambda_gamma` reads off that tree."""
    rs = shortest_path_tree(g, root)
    return rs, lambda_gamma(rs)


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
    root order from 0.0 as :func:`sliced_pair_distances` sums them: the same bits.

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
    return _refuse_overflow(total / len(roots), p)


def sliced_pair_distances(
    g: Graph, measures: list[DiscreteMeasure], roots: list[int] | tuple[int, ...],
    first: np.ndarray | None, second: np.ndarray | None, p: float,
    variant: str = VARIANT_SOBOLEV_IPM, *, into: np.ndarray | None = None,
) -> tuple[np.ndarray, float, float]:
    """Distances between ``measures[first[k]]`` and ``measures[second[k]]``
    averaged over ``roots`` as :func:`sliced_distance` averages them, with
    the set-up time (trees and λ) and the evaluation time (Γ and distances)
    in ms, each summed over the roots.  With ``first`` and ``second`` both
    ``None``, the pairs are all ``i < j``.  The sum is kept in ``into`` (see
    :func:`pair_distances`), zeros if not given.  The roots stream: one
    root's tree, λ and Γ (for the measures the pairs use) are built, used
    and dropped before the next root's, so memory does not grow with the
    root count; the tree goes as soon as Γ is built, before the pair core
    allocates.  A distance whose weighted sum, over edges or over roots,
    overflows is refused with :class:`NonPositiveWeight` naming its pair.
    """
    t0 = time.perf_counter()
    if not roots:
        raise ValueError("need at least one root")
    n = len(measures)
    if first is None:
        pool, size, rows = measures, n * (n - 1) // 2, (None, None)
    else:
        # Row slot[k] of each table holds measure k, for the measures in use.
        used = np.bincount(np.concatenate([first, second]), minlength=n) > 0
        slot = np.cumsum(used) - 1
        pool, size = [measures[k] for k in np.flatnonzero(used)], first.size
        rows = slot[first], slot[second]
    acc = np.zeros(size) if into is None else into
    prep_s, eval_s = 0.0, time.perf_counter() - t0
    for root in roots:
        t0 = time.perf_counter()
        rs, prep = prepare_root(g, int(root))
        t1 = time.perf_counter()
        table = gamma_masses(rs, pool)
        del rs  # the tree is done with: freed before the pair core's buffers
        with np.errstate(over="ignore"):  # an overflowing sum reads inf, refused below
            pair_distances(prep, table, *rows, p, variant, into=acc)
        del prep, table  # before the next root's are built
        prep_s += t1 - t0
        eval_s += time.perf_counter() - t1
    acc /= len(roots)
    if acc.size and not math.isfinite(acc.max()):
        k = int(np.flatnonzero(~np.isfinite(acc))[0])
        if acc.ndim == 2:
            i, j = divmod(k, n)
        elif first is None:
            i, j = (int(x) for x in _Triangle(n).locate(k))
        else:
            i, j = int(first[k]), int(second[k])
        raise NonPositiveWeight(
            f"the distance of measures {i} and {j} is {float(acc.flat[k])} at p = {p}: "
            "its sum overflows"
        )
    return acc, prep_s * 1e3, eval_s * 1e3
