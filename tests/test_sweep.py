"""An adversarial sweep of ``distance`` and ``gram`` on tiny instances.

Hypothesis draws graphs of 2–12 nodes with lengths log-uniform over
[5e-324, 1e308] or at its ends, measures with masses down to 1e-300, orders from 1 to
1e300 and inf, both variants, root 0 and two sliced roots, and runs each
command in-process through ``cli.main``, in a folder that may already hold
the command's output files.  Every run must exit 0, 2 or 3 without raising.
On exit 0 every number written is finite and nonnegative (the sidecar's
eigenvalue only finite); on any other exit no file is created or changed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import tempfile
import time

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

from gsobolev.cli import main

ORDERS = ("1", "1.000000000001", "1.5", "2", "3", "200", "1e300", "inf")
EXAMPLES = 300


def log_uniform(lo: float, hi: float) -> st.SearchStrategy[float]:
    """Floats whose base-10 logarithm is uniform over that of ``[lo, hi]``."""
    return st.floats(math.log10(lo), math.log10(hi)).map(
        lambda e: min(max(10.0**e, lo), hi)
    )


@st.composite
def graphs(draw) -> tuple[int, str]:
    """A connected graph file's node count and text: a random spanning tree
    and up to three more edges."""
    n = draw(st.integers(2, 12))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=3)))
    # the ends of the range and unit lengths, often, so that sums overflow
    # or round away
    lengths = st.one_of(log_uniform(5e-324, 1e308), st.sampled_from([1.0, 1e308]))
    lines = [f"{u} {v} {draw(lengths)!r}\n" for u, v in sorted(edges)]
    return n, f"{n} {len(lines)}\n" + "".join(lines)


@st.composite
def measure_files(draw, n: int) -> tuple[int, str]:
    """A measure file's measure count and text: 1–5 measures of 1–4 nodes,
    each mass drawn log-uniform over [1e-300, 1] and the set rescaled to
    total one."""
    lines = []
    for k in range(draw(st.integers(1, 5))):
        nodes = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True))
        weights = [draw(log_uniform(1e-300, 1.0)) for _ in nodes]
        total = math.fsum(weights)
        lines.append(f"m{k} " + " ".join(f"{v} {w / total!r}" for v, w in zip(nodes, weights)))
    return len(lines), "\n".join(lines) + "\n"


@st.composite
def runs(draw) -> dict:
    """One command line and the files it reads, plus whether its output
    files exist before it runs."""
    n, graph = draw(graphs())
    count, measures = draw(measure_files(n))
    command = draw(st.sampled_from(["distance-all", "distance-pairs", "gram"]))
    root = draw(st.sampled_from(["0", "sliced:2:0", "sliced:2:1"]))
    argv = [command.partition("-")[0], "--graph", "g.txt", "--measures", "m.txt",
            "--root", root, "--p", draw(st.sampled_from(ORDERS))]
    files = {"g.txt": graph, "m.txt": measures}
    if command == "gram":
        argv += ["--kernel", draw(st.sampled_from(["exp", "exp-pow"]))]
        if draw(st.booleans()):
            argv.append("--allow-outside-range")
        outputs = ["out.csv", "out.csv.json"]
    else:
        argv += ["--variant", draw(st.sampled_from(["sipm", "st"]))]
        if command == "distance-pairs":
            index = st.integers(0, count - 1)
            pairs = draw(st.lists(st.tuples(index, index), min_size=1, max_size=6))
            files["pairs.txt"] = "".join(f"{i} {j}\n" for i, j in pairs)
            argv += ["--pairs", "pairs.txt"]
        outputs = ["out.csv"]
    if draw(st.booleans()):
        files.update((name, "an earlier run's output\n") for name in outputs)
    return {"argv": argv + ["--out", "out.csv"], "files": files}


def probe(graph: str, measures: str, command: str, root: str) -> dict:
    return {"argv": [command, "--graph", "g.txt", "--measures", "m.txt", "--root", root,
                     "--p", "1", "--out", "out.csv"],
            "files": {"g.txt": graph, "m.txt": measures, "out.csv": "an earlier run's output\n"}}


# Inputs whose sums overflow or round away, each run by the sweep as well:
# a root-path distance, a unit step after 1e308, a downstream length, and a
# distance over two edges and over two roots.
PROBES = [
    probe(graph, measures, command, root)
    for graph, measures, root in [
        ("3 2\n0 1 1e308\n1 2 1e308\n", "a 0 1\nb 2 1\n", "0"),
        ("3 2\n0 1 1\n1 2 1e-17\n", "a 0 1\nb 2 1\n", "0"),
        ("22 21\n0 1 1\n" + "".join(f"1 {k} 1e307\n" for k in range(2, 22)),
         "a 0 1\nb 2 1\n", "0"),
        ("3 2\n0 1 1e308\n0 2 1e308\n", "a 1 1\nb 2 1\n", "0"),
        ("4 3\n0 1 1e308\n1 2 1.0\n1 3 1.0\n", "a 0 1\nb 1 1\n", "sliced:2:0"),
    ]
    for command in ("distance", "gram")
]


def snapshot(folder: str) -> dict[str, bytes]:
    out = {}
    for name in os.listdir(folder):
        with open(os.path.join(folder, name), "rb") as fh:
            out[name] = fh.read()
    return out


def check_written(folder: str, command: str) -> None:
    """Every number of the written CSV is finite and nonnegative; the
    sidecar's numbers are finite."""
    with open(os.path.join(folder, "out.csv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    body = lines[1:]
    if command == "gram":
        assert int(lines[0]) == len(body)
        with open(os.path.join(folder, "out.csv.json"), encoding="utf-8") as fh:
            sidecar = json.load(fh)
        assert all(math.isfinite(v) for v in sidecar.values()), sidecar
        assert sidecar["nd_violations"] >= 0
    else:
        assert lines[0] == "i,j,distance"
    values = np.array([float(x) for line in body for x in line.split(",")])
    assert np.isfinite(values).all() and (values >= 0).all(), lines


def run_once(case: dict) -> int:
    with tempfile.TemporaryDirectory() as folder:
        for name, text in case["files"].items():
            with open(os.path.join(folder, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        before = snapshot(folder)
        argv = [os.path.join(folder, a) if a in case["files"] or a == "out.csv" else a
                for a in case["argv"]]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3), (code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == 0:
            check_written(folder, case["argv"][0])
        else:
            assert err.getvalue().count("\n") == 1, err.getvalue()
            assert snapshot(folder) == before
        return code


def test_distance_and_gram_sweep():
    codes = []

    def sweep(case):
        codes.append(run_once(case))

    for case in PROBES:
        sweep = example(case)(sweep)
    sweep = settings(max_examples=EXAMPLES, deadline=None, derandomize=True, database=None,
                     suppress_health_check=[HealthCheck.too_slow])(given(runs())(sweep))
    t0 = time.perf_counter()
    sweep()
    elapsed = time.perf_counter() - t0
    assert len(codes) >= EXAMPLES + len(PROBES) and elapsed < 15.0, (len(codes), elapsed)
    # the sweep reaches every kind of exit
    assert {0, 2, 3} <= set(codes)
