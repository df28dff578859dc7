"""Output audits, run outside the timed window.

Every check counts wrong values; the caller adds them to ``failed``.  A
sampled value is wrong when it differs from the per-pair reference by more
than ``RTOL`` relative.  A bitwise difference within tolerance is not a
failure but is counted as an ulp mismatch: the matrix path and the per-pair
path sum in different orders today, which the benchmark reports as a count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

RTOL = 1e-9
ORACLE_RTOL = 1e-8  # README guarantee for order 1 on trees against the LP
DIAG_ATOL = 1e-12
SYM_ATOL = 1e-12
EIG_FLOOR = -1e-8


@dataclass
class Audit:
    wrong: int = 0
    sampled: int = 0
    ulp_mismatch: int = 0
    notes: list[str] = field(default_factory=list)

    def flag(self, count: int, note: str) -> None:
        if count:
            self.wrong += count
            self.notes.append(note)


def close(value: float, ref: float, rtol: float) -> bool:
    return abs(value - ref) <= rtol * abs(ref)


def read_distance_csv(path: str) -> tuple[list[tuple[int, int]], list[float]]:
    """Rows of a ``distance`` output file, values parsed exactly."""
    pairs, values = [], []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "i,j,distance":
            raise ValueError(f"{path}: unexpected header {header!r}")
        for line in fh:
            i, j, d = line.split(",")
            pairs.append((int(i), int(j)))
            values.append(float(d))
    return pairs, values


def audit_distances(
    path: str,
    expected: list[tuple[int, int]],
    sample: list[int],
    reference: Callable[[int, int], float],
    rtol: float = RTOL,
) -> Audit:
    """Check that ``path`` lists exactly the ``expected`` pairs, in order,
    and that the sampled rows match ``reference(i, j)``."""
    audit = Audit()
    try:
        pairs, values = read_distance_csv(path)
    except (OSError, ValueError) as exc:
        audit.flag(len(expected), f"unreadable output: {exc}")
        return audit
    if pairs != expected:
        got = set(pairs)
        missing = sum(1 for pr in expected if pr not in got)
        audit.flag(max(missing, 1), f"pair rows differ from the request ({missing} missing)")
        return audit
    bad = 0
    for k in sample:
        i, j = pairs[k]
        ref = reference(i, j)
        audit.sampled += 1
        if values[k] != ref:
            audit.ulp_mismatch += 1
        if not (math.isfinite(values[k]) and close(values[k], ref, rtol)):
            bad += 1
    audit.flag(bad, f"{bad} of {len(sample)} sampled distances off by more than {rtol:g}")
    return audit


def read_gram_csv(path: str) -> np.ndarray:
    """A ``gram`` output file as a dense array, values parsed exactly."""
    with open(path, "r", encoding="utf-8") as fh:
        n = int(fh.readline())
        rows = [[float(x) for x in line.split(",")] for line in fh]
    K = np.array(rows, dtype=np.float64)
    if K.shape != (n, n):
        raise ValueError(f"{path}: header says {n} rows, body is {K.shape}")
    return K


def audit_gram(
    path: str,
    n: int,
    sample: list[tuple[int, int]],
    reference: Callable[[int, int], float],
) -> Audit:
    """Sampled kernel entries against the per-pair path, plus a unit
    diagonal, symmetry and the sidecar's definiteness diagnostics."""
    audit = Audit()
    try:
        K = read_gram_csv(path)
        with open(path + ".json", "r", encoding="utf-8") as fh:
            sidecar = json.load(fh)
        nd_violations, min_eig = sidecar["nd_violations"], sidecar["min_eigenvalue"]
    except (OSError, ValueError, KeyError) as exc:
        audit.flag(n * (n - 1) // 2, f"unreadable output: {exc!r}")
        return audit
    if K.shape != (n, n):
        audit.flag(n * (n - 1) // 2, f"matrix is {K.shape}, expected {n}x{n}")
        return audit
    bad = 0
    for i, j in sample:
        ref = reference(i, j)
        audit.sampled += 1
        if K[i, j] != ref:
            audit.ulp_mismatch += 1
        if not close(K[i, j], ref, RTOL):
            bad += 1
    audit.flag(bad, f"{bad} of {len(sample)} sampled kernel entries off by more than {RTOL:g}")
    diag = int(np.count_nonzero(~(np.abs(np.diag(K) - 1.0) <= DIAG_ATOL)))
    audit.flag(diag, f"{diag} diagonal entries differ from 1")
    asym = int(np.count_nonzero(np.triu(~(np.abs(K - K.T) <= SYM_ATOL), 1)))
    audit.flag(asym, f"{asym} entries break symmetry")
    audit.flag(int(nd_violations != 0), f"sidecar nd_violations = {nd_violations}")
    audit.flag(int(not min_eig >= EIG_FLOOR), f"sidecar min_eigenvalue = {min_eig}")
    return audit
