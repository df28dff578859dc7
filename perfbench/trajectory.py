"""Record one point of the bench trajectory: every workload over several
seeds, plus one traced run each, summarised as medians and quartiles.

Run from the repository root::

    python3 perfbench/trajectory.py --out perfbench/trajectory/baseline.json

Every point uses the same seeds (11 to 20), the ``run_seconds`` and the
workloads of ``BENCHMARK.json``, so that points compare.  Each seed is a
separate ``run.py`` process, exactly as the benchmark is invoked from
outside.  The spread of a metric is the distance between its
first and third quartile (``statistics.quantiles(values, n=4)``) over its
median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEEDS = list(range(11, 21))
SECONDS = SPEC["run_seconds"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict, dict]:
    """The result object, the workload's info line and the provenance line
    of one run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()

    def line(prefix: str) -> dict:
        return next(json.loads(ln[len(prefix):]) for ln in lines if ln.startswith(prefix))

    return json.loads(lines[-1]), line(f"{workload} info: "), line("provenance: ")


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / median}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    point: dict = {"seeds": SEEDS, "seconds": SECONDS, "workloads": {}}
    for workload in WORKLOADS:
        runs, infos = [], []
        for seed in SEEDS:
            res, info, provenance = run_once(workload, seed, 0)
            runs.append(res)
            infos.append(info)
            print(f"{workload} seed {seed}: correct={res['correct']} failed={res['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                  flush=True)
        traced, traced_info, _ = run_once(workload, SEEDS[0], 1)
        entry = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {
                name: dict(unit=m["unit"], **spread([r["metrics"][name]["value"] for r in runs]))
                for name, m in runs[0]["metrics"].items()
            },
            "per_layer_seed": SEEDS[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_info": traced_info,
            "run_info": infos,
        }
        point["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            print(f"{workload} {name}: median {s['median']:.6g} {s['unit']}, "
                  f"iqr/median {s['iqr_over_median']:.4f}", flush=True)
    point["provenance"] = provenance
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(point, indent=1) + "\n")
    return 0 if all(w["correct"] for w in point["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
