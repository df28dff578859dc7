"""Harness self-test at tiny sizes.

Run from the repository root::

    python3 perfbench/selftest.py

Checks that

* every workload, shrunk to a few measures on small graphs, completes with
  ``--trace 0`` and ``--trace 1``, is correct, and reports exactly the
  metrics ``BENCHMARK.json`` names, each with its unit;
* the audit flags a deliberately corrupted distance file and Gram file;
* every workload's golden case passes against the recorded answers and
  fails against a copy with one answer changed;
* the benchmark fails without a result when the program sources are absent.

Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time

import golden
import run

TINY_SIZES = {"allpairs": (12, 0), "gram": (10, 0), "pairlist": (40, 30)}


def check(ok: bool, what: str, failures: list[str]) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def tiny_workloads() -> dict:
    return {
        name: dataclasses.replace(run.WORKLOADS[name], measures=m, pairs=pairs)
        for name, (m, pairs) in TINY_SIZES.items()
    }


def check_metrics(graphs: dict, failures: list[str]) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for name, wl in tiny_workloads().items():
        for trace in (0, 1):
            res = run.run_workload(wl, seed=3, seconds=0.5, trace=bool(trace), graphs=graphs)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                  f"{name} trace={trace}: correct, {res['attempted']} attempted", failures)
            check(got == want[trace], f"{name} trace={trace}: metric names and units "
                  f"match BENCHMARK.json", failures)
            missing = [k for k in want[trace] if k not in got]
            if missing:
                print(f"     missing {missing}; extra {sorted(set(got) - set(want[trace]))}")


def check_corruption(graphs: dict, failures: list[str]) -> None:
    wls = tiny_workloads()
    run_dir = run.WORK / "selftest-corrupt"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        with run.Runner(run_dir, time.monotonic() + 120.0) as runner:
            for name in ("allpairs", "gram"):
                wl = wls[name]
                inp = run.prepare_inputs(wl, 5, run_dir, graphs)
                dist = run.reference_distance(wl, inp, 5)
                out = run_dir / f"{name}.csv"
                inv = runner.invoke(run.cli_argv(wl, inp, 5, out), len(inp.pairs))
                check(inv.rc == 0, f"{name}: tiny CLI run exits 0", failures)
                clean = run.audit_output(wl, inp, 5, out, dist)
                check(clean.wrong == 0 and clean.sampled > 0, f"{name}: clean output passes",
                      failures)
                lines = out.read_text().splitlines(keepends=True)
                row = 1 + len(lines) // 2
                cells = lines[row].rstrip("\n").split(",")
                cells[-1] = repr(float(cells[-1]) * (1.0 + 1e-6))
                lines[row] = ",".join(cells) + "\n"
                out.write_text("".join(lines))
                bad = run.audit_output(wl, inp, 5, out, dist)
                check(bad.wrong > 0, f"{name}: corrupted value flagged ({bad.notes})", failures)
            pairs_out = run_dir / "allpairs.csv"
            rows = pairs_out.read_text().splitlines(keepends=True)
            pairs_out.write_text("".join(rows[:-1]))
            inp = run.prepare_inputs(wls["allpairs"], 5, run_dir, graphs)
            missing = run.audit_output(wls["allpairs"], inp, 5, pairs_out,
                                       run.reference_distance(wls["allpairs"], inp, 5))
            check(missing.wrong > 0, f"allpairs: missing row flagged ({missing.notes})", failures)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def check_golden(failures: list[str]) -> None:
    run_dir = run.WORK / "selftest-golden"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        with run.Runner(run_dir, time.monotonic() + 120.0) as runner:
            for name, wl in run.WORKLOADS.items():
                inv, clean = golden.check(runner, wl)
                check(inv.rc == 0 and clean.wrong == 0 and clean.sampled == len(golden.pairs()),
                      f"{name}: golden case matches ({clean.sampled} values)", failures)
                altered = json.loads(golden.EXPECTED.read_text())
                altered[name][len(altered[name]) // 2] *= 1.0 + 1e-6
                altered_path = run_dir / "expected.json"
                altered_path.write_text(json.dumps(altered))
                _, bad = golden.check(runner, wl, altered_path)
                check(bad.wrong > 0, f"{name}: changed golden answer flagged ({bad.notes})",
                      failures)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def check_no_program(failures: list[str]) -> None:
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "allpairs",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        check(proc.returncode != 0 and not last[0].startswith("{"),
              f"without sources: exit {proc.returncode}, no result", failures)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    run.load_program()
    import instances

    graphs = {
        "ref": instances.GraphSpec("tiny-ref", points=300, centroids=200),
        "big": instances.GraphSpec("tiny-big", points=2000, centroids=0),
    }
    failures: list[str] = []
    check_metrics(graphs, failures)
    check_corruption(graphs, failures)
    check_golden(failures)
    check_no_program(failures)
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
