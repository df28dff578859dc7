"""The benchmark's pinned answers, checked on every test run.

``perfbench/golden/`` holds a small instance and the values its three
workload commands produced when the benchmark was recorded.  Running those
commands here makes a refactor that moves a value fail a test, not only a
benchmark run.  The files are read, never written.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from gsobolev.cli import main
from conftest import read_matrix_csv

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
RTOL = 1e-9

# workload -> its command's flags on the instance
COMMANDS = {
    "allpairs": ["distance", "--root", "0", "--p", "2", "--variant", "sipm", "--pairs", "all"],
    "gram": ["gram", "--root", "0", "--p", "1.5", "--kernel", "exp-pow", "--t", "1.0"],
    "pairlist": ["distance", "--root", "sliced:4:7", "--p", "inf",
                 "--pairs", str(GOLDEN / "instance.pairs")],
}


@pytest.mark.parametrize("workload", sorted(COMMANDS))
def test_matches_recorded_values(workload, tmp_path):
    expected = json.loads((GOLDEN / "expected.json").read_text())[workload]
    out = tmp_path / "out.csv"
    argv = COMMANDS[workload] + [
        "--graph", str(GOLDEN / "instance.graph"),
        "--measures", str(GOLDEN / "instance.measures"),
        "--out", str(out),
    ]
    assert main(argv) == 0
    if workload == "gram":
        K = read_matrix_csv(str(out))
        pairs = list(itertools.combinations(range(len(K)), 2))
        got = [K[i, j] for i, j in pairs]
    else:
        rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        pairs = [(int(i), int(j)) for i, j in rows[:, :2]]
        got = rows[:, 2].tolist()
        assert pairs == list(itertools.combinations(range(8), 2))
    assert len(got) == len(expected) == 28
    np.testing.assert_allclose(got, expected, rtol=RTOL, atol=0.0)
