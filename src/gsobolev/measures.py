"""Node-supported probability measures and their cumulative edge vectors.

A :class:`DiscreteMeasure` is a probability measure supported on graph nodes.
For a fixed root, each measure collapses to a sparse vector over the edges
of that root's shortest-path tree: the entry at a tree edge is the total
mass whose recorded root path crosses it.  Distances only ever read these
vectors, as the rows of a :class:`GammaTable`: a list of measures becomes one
table, and a single measure's vector is a one-row table cached on the rooted
structure, keyed by the (hashable) measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Sequence

import numpy as np
from scipy.sparse._sparsetools import csr_has_canonical_format

from .errors import (
    GSobolevError,
    MassNotNormalized,
    NegativeMass,
    NodeOutOfRange,
    ParseError,
    SizeLimitExceeded,
)
from .graph import Graph, RootedStructure
from .textio import significant_lines, utf8_input

# Largest accepted |total mass - 1| of a measure.
MASS_TOL = 1e-9


@dataclass(frozen=True)
class DiscreteMeasure:
    """Probability measure on graph nodes: distinct ids, nonnegative masses
    summing to one within ``MASS_TOL``.

    Hashable, so it can key per-root caches; the hash is computed once, at
    construction, and equality compares the fields.
    """

    nodes: tuple[int, ...]
    masses: tuple[float, ...]

    def __post_init__(self) -> None:
        nodes = tuple(map(int, self.nodes))
        masses = tuple(map(float, self.masses))
        if len(nodes) != len(masses):
            raise ValueError("nodes and masses must pair up")
        if not nodes:
            raise ValueError("measure needs at least one support point")
        if len(set(nodes)) != len(nodes):
            raise ValueError("support nodes must be distinct")
        if min(nodes) < 0:
            raise NodeOutOfRange(f"negative node id {min(nodes)}")
        for node, m in zip(nodes, masses):
            if not math.isfinite(m) or m < 0.0:
                raise NegativeMass(f"node {node} carries invalid mass {m!r}")
        total = math.fsum(masses)
        if abs(total - 1.0) > MASS_TOL:
            raise MassNotNormalized(f"masses sum to {total!r}, expected 1")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "_hash", hash((nodes, masses)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def dirac(cls, node: int) -> "DiscreteMeasure":
        return cls((node,), (1.0,))

    @property
    def support_size(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True, eq=False)
class GammaTable:
    """Cumulative edge vectors of a list of measures under one root, as the
    rows of a CSR layout: row ``k`` holds ``edge_ids[indptr[k]:indptr[k + 1]]``,
    increasing, and the matching ``values``; one measure's vector is a
    one-row table.  Each column id is a tree edge's rank under the table's
    root, the index of :class:`EdgePrep`'s vectors, not a graph edge id:
    ``rs.tree_edges[edge_ids]`` gives the graph edge ids back.  The arrays
    are read-only.  The distance kernels read the rows without bounds
    checks, so construction checks the layout."""

    root: int
    indptr: np.ndarray
    edge_ids: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        ptr = self.indptr
        if not (
            ptr.size
            and ptr[0] == 0
            and ptr[-1] == self.edge_ids.size == self.values.size
            and (ptr[1:] >= ptr[:-1]).all()
            and csr_has_canonical_format(ptr.size - 1, ptr, self.edge_ids)
        ):
            raise ValueError("rows must be CSR rows of strictly increasing column ids")
        for arr in (self.indptr, self.edge_ids, self.values):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return self.indptr.size - 1

    def row(self, k: int) -> "GammaTable":
        """Row ``k`` (negative from the end) as a one-row table viewing this
        table's arrays."""
        k = range(len(self))[k]
        a, b = self.indptr[k], self.indptr[k + 1]
        ptr = self.indptr[k : k + 2] - a
        return GammaTable(self.root, ptr, self.edge_ids[a:b], self.values[a:b])


# Root-path entries a pass of gamma_masses walks beyond its first measure;
# bounds its scratch memory.
_PASS_ENTRIES = 1 << 15

# Most entries a Γ table may be predicted to hold (the support points' root
# path lengths summed; equal (measure, edge) entries merge, so the table
# holds at most that many).  A stored entry costs 16 bytes (an int64 column
# and a float64 value), and up to _GAMMA_ENTRY_BYTES = 24 while the passes'
# pieces are joined (all pieces plus one joined array), so the budget caps a
# table near 1 GiB and its build near 1.5 GiB.  Above it, gamma_masses
# refuses before it allocates.
_GAMMA_ENTRY_BUDGET = 1 << 26
_GAMMA_ENTRY_BYTES = 24


def gamma_mass(rs: RootedStructure, mu: DiscreteMeasure) -> GammaTable:
    """Cumulative edge vector of ``mu`` under the root of ``rs``: the
    one-row table :func:`gamma_masses` gives for ``[mu]``, cached on ``rs``
    per measure, as per-pair callers look the same measures up again and
    again."""
    if mu not in rs._gamma_cache:
        rs._gamma_cache[mu] = gamma_masses(rs, [mu])
    return rs._gamma_cache[mu]


def gamma_masses(rs: RootedStructure, measures: Sequence[DiscreteMeasure]) -> GammaTable:
    """Cumulative edge vectors of ``measures`` under the root of ``rs``, row
    ``k`` for ``measures[k]``, computed together in passes of whole measures
    whose root paths hold about ``_PASS_ENTRIES`` entries.  A table predicted
    to hold more than ``_GAMMA_ENTRY_BUDGET`` entries raises
    :class:`SizeLimitExceeded` before it is built."""
    n = rs.graph.node_count
    stride = max(n - 1, 1)  # columns per measure in the keys; a one-node tree has none
    supports = list(map(attrgetter("nodes"), measures))
    sizes = np.fromiter(map(len, supports), np.int64, len(supports))
    nodes = np.fromiter(chain.from_iterable(supports), np.int64)
    outside = nodes[nodes >= n]
    if outside.size:
        raise NodeOutOfRange(f"support node {outside[0]} outside [0, {n})")
    depth = rs.depth[nodes]
    entries = int(depth.sum())
    if entries > _GAMMA_ENTRY_BUDGET:
        raise SizeLimitExceeded(
            f"the cumulative edge vectors of {len(measures)} measures under root "
            f"{rs.root} would hold up to {entries:,} entries "
            f"({entries * _GAMMA_ENTRY_BYTES:,} bytes to build), above the budget "
            f"of {_GAMMA_ENTRY_BUDGET:,} entries"
        )
    masses = np.fromiter(chain.from_iterable(map(attrgetter("masses"), measures)), np.float64)
    ends = np.cumsum(sizes)
    owner = np.repeat(np.arange(sizes.size) * stride, sizes)
    # Measure k joins pass ceil(entries through k / _PASS_ENTRIES), so a pass
    # holds its first measure and at most _PASS_ENTRIES entries more.
    group = -(-np.cumsum(depth)[ends - 1] // _PASS_ENTRIES)
    bounds = np.append(np.flatnonzero(np.diff(group, prepend=-1)), sizes.size)
    # Each pass leaves its sorted keys and its values.  Passes run in measure
    # order, so the joined keys are sorted: one search finds every row start.
    # The keys are joined (their pieces dropped) before the values, so the
    # build holds all pieces plus one joined array at most.
    keys, values = [np.zeros(0, np.int64)], [np.zeros(0)]
    for start, stop in zip(bounds[:-1], bounds[1:]):
        pts = slice(ends[start] - sizes[start], ends[stop - 1])
        key, sums = _root_path_sums(rs, owner[pts], nodes[pts], masses[pts])
        keys.append(key)
        values.append(sums)
        del key, sums
    keys = np.concatenate(keys)
    indptr = np.searchsorted(keys, np.arange(sizes.size + 1) * stride)
    columns = np.remainder(keys, stride, out=keys)
    values = np.concatenate(values)
    return GammaTable(rs.root, indptr, columns, values)


def _root_path_sums(
    rs: RootedStructure, owner: np.ndarray, nodes: np.ndarray, masses: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted keys ``k * stride + rank`` and the summed masses of the
    cumulative vectors of measures ``k``, from support points
    ``nodes``/``masses`` of measure ``owner // stride`` (non-decreasing):
    ``rank`` is a tree edge's rank, and ``stride`` the tree's edge count,
    at least 1.

    Point ``p``'s root path is its run of ``depth[p]`` slots in ``up``, one
    run after another: slot ``j`` of a run holds the node ``j`` tree steps
    above the point, filled by doubling, as ``rs.lift[k]`` maps each run's
    slots ``[0, 2**k)`` to its slots ``[2**k, 2**(k+1))``.  Each (measure,
    edge) entry then sums its points' masses with ``np.bincount``, which adds
    in slot order, point by point: the order a point-by-point walk adds them.
    """
    depth = rs.depth[nodes]
    start = np.cumsum(depth) - depth
    up = np.repeat(nodes, depth)
    for k, lift in enumerate(rs.lift):
        span = 1 << k
        live = np.flatnonzero(depth > span)
        if not live.size:
            break
        width = np.minimum(depth[live] - span, span)
        src = np.repeat(start[live] - (np.cumsum(width) - width), width)
        src += np.arange(src.size)
        up[src + span] = lift[up[src]]
    key = np.repeat(owner, depth) + rs.rank[up]
    uniq, entry = np.unique(key, return_inverse=True)
    return uniq, np.bincount(entry, weights=np.repeat(masses, depth))


def save_measures(measures: Sequence[DiscreteMeasure], path: str) -> None:
    """Write measures in the format :func:`load_measures` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, mu in enumerate(measures):
            cells = [f"m{i}"]
            for node, mass in zip(mu.nodes, mu.masses):
                cells.append(str(node))
                cells.append(f"{mass:.17g}")
            fh.write("\t".join(cells) + "\n")


@utf8_input
def load_measures(path: str, g: Graph) -> list[DiscreteMeasure]:
    """Parse a measure file against graph ``g``.

    One measure per significant line: an id token followed by alternating
    ``node mass`` tokens (tab- or space-separated).  Lines starting with
    ``#`` and blank lines are ignored.  The tokens go to the
    :class:`DiscreteMeasure` constructor, which holds the measure rules;
    this loader adds only the bound ``node < g.node_count``.  A refusal is
    raised again as ``"{path}:{line}: measure '{id}': {message}"``, with its
    class kept, except that a plain ``ValueError`` (a token that does not
    parse, a repeated node) becomes :class:`ParseError`.
    """
    n = g.node_count
    out: list[DiscreteMeasure] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in significant_lines(fh):
            tok = raw.split()
            if len(tok) < 3 or len(tok) % 2 == 0:
                raise ParseError(
                    f"{path}:{lineno}: expected 'id node mass [node mass ...]'"
                )
            try:
                mu = DiscreteMeasure(tok[1::2], tok[2::2])
                if max(mu.nodes) >= n:
                    raise NodeOutOfRange(f"node {max(mu.nodes)} outside [0, {n})")
            except (ValueError, GSobolevError) as exc:
                kind = type(exc) if isinstance(exc, GSobolevError) else ParseError
                raise kind(f"{path}:{lineno}: measure {tok[0]!r}: {exc}") from exc
            out.append(mu)
    return out
