"""The ``verify`` report at seed 0, checked against a committed copy.

``data/verify_all_seed0.json`` is the file ``gsobolev verify --suite all
--seed 0 --out`` wrote when it was recorded.  A refactor of the suites that
moves an instance count, a violation count or a verdict fails here; the
worst values may move only by the last bits another BLAS build gives them.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from gsobolev.verify import run_suites

GOLDEN_REPORT = Path(__file__).resolve().parent / "data" / "verify_all_seed0.json"


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_verify_report_matches_golden():
    want = json.loads(GOLDEN_REPORT.read_text(encoding="utf-8"))
    got = [rep.as_dict() for rep in run_suites(["all"], seed=0)]
    assert [(r["suite"], r["seed"], r["passed"]) for r in got] == [
        (r["suite"], r["seed"], r["passed"]) for r in want
    ]
    for got_rep, want_rep in zip(got, want):
        exact = [{k: v for k, v in c.items() if k != "worst"} for c in got_rep["checks"]]
        assert exact == [
            {k: v for k, v in c.items() if k != "worst"} for c in want_rep["checks"]
        ], got_rep["suite"]
        for got_chk, want_chk in zip(got_rep["checks"], want_rep["checks"]):
            assert _close(got_chk["worst"], want_chk["worst"]), (got_rep["suite"], got_chk)


def test_unknown_suite_refused():
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        run_suites(["nope"])
