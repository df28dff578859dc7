"""Node-supported probability measures and their cumulative edge vectors.

A :class:`DiscreteMeasure` is a probability measure supported on graph nodes.
For a fixed root, each measure collapses to a sparse vector indexed by edge
id: the entry at edge ``e`` is the total mass whose recorded root path
crosses ``e``.  Distances only ever read these vectors, as the rows of a
:class:`GammaTable`: a list of measures becomes one table, and a single
measure's vector is a one-row table cached on the rooted structure, keyed by
the (hashable) measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy.sparse._sparsetools import csr_has_canonical_format

from .errors import (
    MassNotNormalized,
    NegativeMass,
    NodeOutOfRange,
    ParseError,
    utf8_input,
)
from .graph import Graph, RootedStructure

# Tolerance on |total mass - 1| accepted without renormalizing.
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
        nodes = tuple(int(x) for x in self.nodes)
        masses = tuple(float(m) for m in self.masses)
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
        self._settle(nodes, masses)

    def _settle(self, nodes: tuple[int, ...], masses: tuple[float, ...]) -> None:
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "_hash", hash((nodes, masses)))

    @classmethod
    def _trusted(
        cls, nodes: tuple[int, ...], masses: tuple[float, ...]
    ) -> "DiscreteMeasure":
        """A measure from an ``int`` and a ``float`` tuple that pass every
        check of ``__post_init__``, built without running them again."""
        mu = object.__new__(cls)
        mu._settle(nodes, masses)
        return mu

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def normalized(cls, entries: Iterable[tuple[int, float]]) -> "DiscreteMeasure":
        """Build a measure from ``(node, weight)`` pairs, rescaling to total one."""
        pairs = list(entries)
        total = math.fsum(m for _, m in pairs)
        if not math.isfinite(total) or total <= 0.0:
            raise MassNotNormalized(f"cannot normalize total mass {total!r}")
        return cls(
            tuple(n for n, _ in pairs),
            tuple(m / total for _, m in pairs),
        )

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
    one-row table.  The arrays are read-only.  The distance kernels read the
    rows without bounds checks, so construction checks the layout."""

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
            raise ValueError("rows must be CSR rows of strictly increasing edge ids")
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


# Cells of the (support points x steps) root-path table built per pass of
# gamma_masses; bounds its scratch memory.
_PASS_CELLS = 1 << 20


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
    ``k`` for ``measures[k]``, computed together in passes whose root-path
    tables hold about ``_PASS_CELLS`` cells."""
    n, m = rs.graph.node_count, rs.graph.edge_count
    supports = list(map(attrgetter("nodes"), measures))
    sizes = np.fromiter(map(len, supports), np.int64, len(supports))
    nodes = np.fromiter(chain.from_iterable(supports), np.int64)
    masses = np.fromiter(chain.from_iterable(map(attrgetter("masses"), measures)), np.float64)
    outside = nodes[nodes >= n]
    if outside.size:
        raise NodeOutOfRange(f"support node {outside[0]} outside [0, {n})")
    ends = np.cumsum(sizes)
    deepest = np.maximum.reduceat(rs.depth[nodes], ends - sizes)
    owner = np.repeat(np.arange(sizes.size) * m, sizes)
    pieces = [(np.zeros(0, np.int64), np.zeros(0))]
    for start, stop, steps in _passes(sizes, deepest):
        pts = slice(ends[start] - sizes[start], ends[stop - 1])
        pieces.append(_root_path_sums(rs, owner[pts], nodes[pts], masses[pts], steps))
    key, values = (np.concatenate(parts) for parts in zip(*pieces))
    indptr = np.searchsorted(key, np.arange(len(measures) + 1) * m)
    return GammaTable(rs.root, indptr, key % m, values)


def _passes(sizes: np.ndarray, deepest: np.ndarray) -> Iterator[tuple[int, int, int]]:
    """Split measures with ``sizes`` support points and ``deepest`` longest
    root paths into runs ``[start, stop)`` whose table (points x ``steps``)
    holds at most ``_PASS_CELLS`` cells, or holds one measure.  Looking at
    most ``_PASS_CELLS + 1`` measures ahead keeps a run's cost near its table's."""
    start = 0
    while start < sizes.size:
        ahead = slice(start, start + _PASS_CELLS + 1)
        steps = np.maximum.accumulate(deepest[ahead])
        cells = np.cumsum(sizes[ahead]) * steps
        count = 1 + int(np.searchsorted(cells[1:], _PASS_CELLS, side="right"))
        yield start, start + count, int(steps[count - 1])
        start += count


def _root_path_sums(
    rs: RootedStructure,
    owner: np.ndarray,
    nodes: np.ndarray,
    masses: np.ndarray,
    steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted keys ``k * edge_count + edge`` and the summed masses of the
    cumulative vectors of measures ``k``, from support points
    ``nodes``/``masses`` of measure ``owner // edge_count`` (non-decreasing)
    whose root paths are at most ``steps`` edges long.

    Row ``p`` of the table ``up`` lists the nodes ``0, 1, ...`` tree steps
    above ``nodes[p]``, filled by doubling: ``rs.lift[k]`` maps the first
    ``2**k`` columns to the next ``2**k``.  Each (measure, edge) entry then
    sums its points' masses with ``np.bincount``, which adds in table order,
    point by point: the order a point-by-point walk adds them.
    """
    depth = rs.depth[nodes]
    up = np.empty((nodes.size, steps), dtype=np.int64)
    up[:, :1] = nodes[:, None]
    for k, lift in enumerate(rs.lift):
        span = 1 << k
        if span >= steps:
            break
        width = min(span, steps - span)
        up[:, span : span + width] = lift[up[:, :width]]
    path = up[np.arange(steps) < depth[:, None]]
    key = np.repeat(owner, depth) + rs.parent_edge[path]
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
def load_measures(path: str, g: Graph, normalize: bool = False) -> list[DiscreteMeasure]:
    """Parse a measure file against graph ``g``.

    One measure per significant line: an id token followed by alternating
    ``node mass`` tokens (tab- or space-separated).  Lines starting with
    ``#`` and blank lines are ignored.  With ``normalize`` the masses are
    rescaled to total one; otherwise a total off by more than ``MASS_TOL``
    raises :class:`MassNotNormalized`.
    """
    n = g.node_count
    out: list[DiscreteMeasure] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            tok = raw.split()
            if not tok or tok[0].startswith("#"):
                continue
            if len(tok) < 3 or len(tok) % 2 == 0:
                raise ParseError(
                    f"{path}:{lineno}: expected 'id node mass [node mass ...]'"
                )
            label = tok[0]
            try:
                nodes = tuple(map(int, tok[1::2]))
                masses = tuple(map(float, tok[2::2]))
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: cannot parse measure {label!r}") from exc
            if len(set(nodes)) != len(nodes):
                raise ParseError(f"{path}:{lineno}: measure {label!r} repeats a node")
            for node in nodes:
                if not 0 <= node < n:
                    raise NodeOutOfRange(f"{path}:{lineno}: node {node} outside [0, {n})")
            for node, m in zip(nodes, masses):
                if not math.isfinite(m) or m < 0.0:
                    raise NegativeMass(
                        f"{path}:{lineno}: node {node} carries invalid mass {m!r}"
                    )
            if normalize:
                out.append(DiscreteMeasure.normalized(zip(nodes, masses)))
            else:
                total = math.fsum(masses)
                if abs(total - 1.0) > MASS_TOL:
                    raise MassNotNormalized(
                        f"{path}:{lineno}: measure {label!r} sums to {total!r}"
                    )
                out.append(DiscreteMeasure._trusted(nodes, masses))
    return out
