"""Pinned answers: each workload's CLI command on a fixed tiny instance,
checked against values recorded when the benchmark was added.

The audit's per-pair reference calls the same library functions as the
CLI, so a rewrite of that shared core would move both sides alike.  These
recorded values do not move: once per run, the workload's command (its
``--p``, ``--root`` form, flags and pair source) runs on the instance in
``golden/`` and every value must match at relative ``audit.RTOL``.

Re-record only on purpose, from the repository root::

    python3 perfbench/golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import audit

HERE = Path(__file__).resolve().parent
DIR = HERE / "golden"
GRAPH, MEASURES, PAIRS, EXPECTED = (
    DIR / name for name in ("instance.graph", "instance.measures", "instance.pairs",
                            "expected.json")
)
SEED = 7  # instance seed and the SEED of a sliced root spec
POINTS, COUNT, SUPPORT = 60, 8, 4


def pairs() -> list[tuple[int, int]]:
    return [(i, j) for i in range(COUNT) for j in range(i + 1, COUNT)]


def cli_argv(wl, out: Path) -> list[str]:
    """``wl``'s command on the golden instance; a pair-file workload reads
    every pair from ``instance.pairs``."""
    argv = [wl.command, "--graph", str(GRAPH), "--measures", str(MEASURES),
            "--root", wl.root(SEED), "--p", wl.p, *wl.flags, "--out", str(out)]
    if wl.command == "distance":
        argv += ["--pairs", str(PAIRS) if wl.pairs else "all"]
    return argv


def check(runner, wl, expected_path: Path = EXPECTED) -> tuple[object, audit.Audit]:
    """Run ``wl``'s golden case in a child; the invocation and the audit of
    its output against the recorded values."""
    expected = json.loads(expected_path.read_text())[wl.name]
    ref = dict(zip(pairs(), expected))
    out = runner.run_dir / "golden.csv"
    inv = runner.invoke(cli_argv(wl, out), len(ref))
    if inv.rc != 0:
        result = audit.Audit()
        result.flag(len(ref), f"golden run exited {inv.rc}")
        return inv, result
    if wl.command == "gram":
        return inv, audit.audit_gram(str(out), COUNT, pairs(), lambda i, j: ref[(i, j)])
    return inv, audit.audit_distances(str(out), pairs(), list(range(len(ref))),
                                      lambda i, j: ref[(i, j)])


def write() -> None:
    """Build the instance and record this commit's answers for every
    workload, running ``gsobolev.cli.main`` in this process."""
    import numpy as np

    import run

    run.load_program()
    import gsobolev.cli
    from gsobolev.graph import save_graph
    from gsobolev.measures import save_measures
    from gsobolev.synth import PointCloud, build_random_graph, random_measures

    DIR.mkdir(exist_ok=True)
    pts = PointCloud(np.random.default_rng(SEED).random((POINTS, 2)))
    g = build_random_graph(pts, "log", seed=SEED)
    save_graph(g, str(GRAPH))
    save_measures(random_measures(g, COUNT, SUPPORT, seed=SEED), str(MEASURES))
    PAIRS.write_text("".join(f"{i} {j}\n" for i, j in pairs()))
    expected = {}
    out = run.WORK / "golden.csv"
    run.WORK.mkdir(exist_ok=True)
    for name, wl in run.WORKLOADS.items():
        if gsobolev.cli.main(cli_argv(wl, out)) != 0:
            raise SystemExit(f"error: {name} golden case failed")
        if wl.command == "gram":
            K = audit.read_gram_csv(str(out))
            expected[name] = [float(K[i, j]) for i, j in pairs()]
        else:
            got, values = audit.read_distance_csv(str(out))
            assert got == pairs()
            expected[name] = values
    EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")
    for path in (out, Path(str(out) + ".json")):
        path.unlink(missing_ok=True)


if __name__ == "__main__":
    write()
