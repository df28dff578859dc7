"""Distance matrices, exponential kernels, and definiteness diagnostics.

For orders ``1 <= p <= 2`` the distance and its ``p``-th power are negative
definite, so ``exp(-t * d)`` and ``exp(-t * d**p)`` are positive definite for
every bandwidth ``t > 0`` and infinitely divisible (every entrywise ``n``-th
root is again positive definite).  The checks here test exactly that, both
with random centered quadratic forms and spectrally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidBandwidth,
    InvalidExponent,
    NonConvergence,
    NonPositiveEntry,
)
from .graph import EdgePrep
from .measures import GammaTable
from .metrics import VARIANT_SOBOLEV_IPM, _check_order, pair_distances
from .textio import write_rows

KERNEL_EXP = "exp_neg_t_d"
KERNEL_EXP_POW = "exp_neg_t_d_pow_p"
KERNEL_FORMS = (KERNEL_EXP, KERNEL_EXP_POW)

# Definiteness slack: quadratic forms and eigenvalues this far on the wrong
# side of zero count as violations.
ND_QUAD_RTOL = 1e-8
EIG_TOL = 1e-8


def _square(m: np.ndarray) -> np.ndarray:
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    return a


def distance_matrix(
    prep: EdgePrep,
    table: GammaTable,
    p: float,
    variant: str = VARIANT_SOBOLEV_IPM,
) -> np.ndarray:
    """All-pairs distances between the rows of a cumulative-vector table
    under one root, as a symmetric array with a zero diagonal.  Each entry
    is the per-pair functions' value, bit for bit."""
    n = len(table)
    i, j = np.triu_indices(n, 1)
    return _symmetric(n, i, j, pair_distances(prep, table, i, j, p, variant))


def _symmetric(n: int, i: np.ndarray, j: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The symmetric ``n x n`` array with ``d[k]`` at ``(i[k], j[k])`` and
    ``(j[k], i[k])``, zero elsewhere."""
    out = np.zeros((n, n))
    out[i, j] = d
    out[j, i] = d
    return out


@dataclass(frozen=True)
class GramSpec:
    """Kernel recipe: order ``p``, bandwidth ``t`` and functional form."""

    p: float
    t: float
    form: str = KERNEL_EXP
    allow_outside_range: bool = False

    def __post_init__(self) -> None:
        _check_order(self.p)
        if not (self.t > 0.0 and math.isfinite(self.t)):
            raise InvalidBandwidth(f"bandwidth t must be positive, got {self.t!r}")
        if self.form not in KERNEL_FORMS:
            raise ValueError(f"unknown kernel form {self.form!r}")
        if not self.allow_outside_range and not 1.0 <= self.p <= 2.0:
            raise InvalidExponent(
                f"positive definiteness is only guaranteed for 1 <= p <= 2, got "
                f"{self.p}; pass allow_outside_range to proceed"
            )


def gram_matrix(d: np.ndarray, spec: GramSpec) -> np.ndarray:
    """Entrywise exponential kernel of a distance matrix.

    ``exp(-t * d)`` or ``exp(-t * d**p)`` per ``spec.form``.  The diagonal of
    a distance matrix is zero, so the kernel diagonal is exactly one.
    """
    d = _square(d)
    if spec.form == KERNEL_EXP_POW and spec.p != 1.0:
        d = d**spec.p
    return np.exp(-spec.t * d)


@dataclass(frozen=True)
class DefinitenessReport:
    """Outcome of negative-definiteness checks on a distance matrix."""

    trials: int
    violations: int
    worst: float
    spectral_min: float
    spectral_passed: bool
    outside_guaranteed_range: bool

    @property
    def passed(self) -> bool:
        return self.violations == 0 and self.spectral_passed


def quadratic_form_violations(
    d: np.ndarray, trials: int = 200, seed: int = 0
) -> tuple[int, float]:
    """Randomized negative-definiteness test of ``d``: the number of
    violations and the largest quadratic form seen (0.0 for an empty matrix).

    For ``trials`` centered coefficient vectors ``c`` (zero sum) drawn from
    ``default_rng(seed)``, the quadratic form ``c' d c`` must stay below
    ``1e-8 * ||c||^2 * max(d)``; each form above that is a violation.
    """
    D = _square(d)
    n = len(D)
    if n == 0:
        return 0, 0.0
    rng = np.random.default_rng(seed)
    scale = float(D.max())
    violations = 0
    worst = -math.inf
    for _ in range(trials):
        c = rng.standard_normal(n)
        c -= c.mean()
        q = float(c @ D @ c)
        worst = max(worst, q)
        if q > ND_QUAD_RTOL * float(c @ c) * scale:
            violations += 1
    return violations, worst


def check_negative_definite(
    d: np.ndarray, p: float, trials: int = 200, seed: int = 0
) -> DefinitenessReport:
    """Test that ``d`` behaves as a negative definite matrix.

    Randomized part: :func:`quadratic_form_violations`.  Spectral part: the
    doubly centered matrix ``-J d J`` must be positive semidefinite within an
    eigenvalue tolerance of ``-1e-8``.  Orders outside ``[1, 2]`` are still
    checked but flagged, since the guarantee only covers that range.
    """
    _check_order(p, allow_inf=True)
    D = _square(d)
    if len(D) == 0:
        return DefinitenessReport(0, 0, 0.0, 0.0, True, not 1.0 <= p <= 2.0)
    violations, worst = quadratic_form_violations(D, trials, seed)
    # -J D J with J = I - 11'/n, by subtracting row and column means and
    # adding back the grand mean
    rows = D.mean(axis=1, keepdims=True)
    cols = D.mean(axis=0, keepdims=True)
    M = rows + cols - D - rows.mean()
    spectral_min = min_eigenvalue((M + M.T) / 2.0)
    return DefinitenessReport(
        trials=trials,
        violations=violations,
        worst=worst,
        spectral_min=spectral_min,
        spectral_passed=spectral_min >= -EIG_TOL,
        outside_guaranteed_range=not 1.0 <= p <= 2.0,
    )


def min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    m = _square(m)
    if m.size == 0:
        return 0.0
    try:
        return float(np.linalg.eigvalsh(m).min())
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(str(exc)) from exc


def divisibility_check(gram: np.ndarray, n: int) -> bool:
    """Whether the entrywise ``n``-th root of a kernel matrix stays positive
    semidefinite (the hallmark of an infinitely divisible kernel).

    Requires strictly positive entries; exponential kernels satisfy that.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    gram = _square(gram)
    if gram.size and gram.min() <= 0.0:
        raise NonPositiveEntry(
            f"entrywise root needs positive entries, min is {gram.min()!r}"
        )
    root = gram ** (1.0 / n)
    floor = -EIG_TOL * max(len(gram), 1) * max(root.max(initial=0.0), 1.0)
    return min_eigenvalue(root) >= floor


def write_matrix_csv(m: np.ndarray, path: str) -> int:
    """Serialize: first line the dimension, then the full square matrix with
    17 significant digits, streamed in row blocks by :func:`textio.write_rows`;
    returns its count of numbers formatted by Python."""
    m = _square(m)
    with open(path, "wb") as fh:
        fh.write(b"%d\n" % len(m))
        return write_rows(fh, (m,), ",")

