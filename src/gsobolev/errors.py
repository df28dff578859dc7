"""Exception and warning taxonomy shared across the package.

Every error raised on purpose derives from :class:`GSobolevError` so callers
(and the CLI) can distinguish bad data from genuine bugs with one except
clause.  Parsing problems, structural graph violations, measure violations,
and numeric preconditions each get their own class; messages carry enough
context (line numbers, ids, offending values) to fix the input.
"""

from __future__ import annotations


class GSobolevError(Exception):
    """Base class for all errors raised deliberately by this package."""


class ParseError(GSobolevError):
    """A graph, measure, or pair file is malformed."""


class NonPositiveWeight(GSobolevError):
    """An edge length is zero, negative, or not finite, or lengths overflow
    or round away in a root path's or a downstream length's sum."""


class Disconnected(GSobolevError):
    """The graph does not consist of a single connected component."""


class DuplicateEdge(GSobolevError):
    """An unordered node pair appears twice, or an edge is a self-loop."""


class NodeOutOfRange(GSobolevError):
    """A node id falls outside ``[0, node_count)``."""


class MassNotNormalized(GSobolevError):
    """Measure masses do not sum to one within tolerance."""


class NegativeMass(GSobolevError):
    """A measure entry carries negative mass."""


class InvalidExponent(GSobolevError):
    """The order ``p`` is below one, NaN, infinite where it must be finite,
    or outside ``[1, 2]`` for a kernel: in the CLI, a bad ``--p`` value."""


class RootMismatch(GSobolevError):
    """Operands were prepared against different roots."""


class InvalidBandwidth(GSobolevError):
    """A kernel bandwidth ``t`` is not positive and finite: in the CLI, a bad ``--t`` value."""


class NonConvergence(GSobolevError):
    """An eigenvalue computation failed to converge."""


class NonPositiveEntry(GSobolevError):
    """An entrywise root requires strictly positive matrix entries."""


class InfeasibleMass(GSobolevError):
    """Transport endpoints carry different total mass."""


class SizeLimitExceeded(GSobolevError):
    """An instance is above a size cap: an exact oracle's, a graph's node
    count for int64 pair keys, the entry budget of a cumulative edge vector
    table, or the byte budget of a command's n^2-sized arrays; the last two
    are refused before they are built rather than exhausting memory."""


class EmptyCloud(GSobolevError):
    """A point cloud holds no points."""


class SupportTooLarge(GSobolevError):
    """A requested support size exceeds the number of available nodes."""


class DegenerateGeometryWarning(UserWarning):
    """Coincident points produced a zero-length edge; a jitter was applied."""
