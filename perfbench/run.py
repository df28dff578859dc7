"""gsobolev benchmark: three CLI workloads with an output audit and a traced
per-layer run.

Run from the repository root::

    python3 perfbench/run.py --workload allpairs --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each CLI invocation is ``gsobolev.cli.main(argv)`` in a process of its own,
forked from one server per run (``child.py``) that has done the imports,
one at a time: a closed loop with one client.  No thread
flag or thread environment variable is set, so the program's defaults are
measured.  The last line of standard output is the JSON result; the lines
before it give provenance, inputs, the audit and a human summary.

Workloads (see README.md for the sizing):

* ``allpairs``: ``distance --pairs all --p 2`` on the reference graph;
  stresses the dense all-pairs kernel.
* ``gram``: ``gram --p 1.5 --kernel exp-pow``; the same kernel at a
  non-integer order plus the O(n^3) diagnostics and the n^2 CSV write.
* ``pairlist``: ``distance --pairs FILE --root sliced:4:SEED --p inf`` on a
  5e4-node graph with Zipf-popular pairs; setup-bound, per-pair path only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import audit
import golden

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

MIN_REPS = 3  # timed CLI invocations per run, at least
SETUP_REPS = 3  # set-up invocations per run, at least
SETUP_SHARE = 0.1  # and more while they took less than this share of --seconds
SUPPORT = 10  # support points per measure
ZIPF_EXPONENT = 1.0  # pair popularity on `pairlist`
RUN_LIMIT_S = 165.0  # every child is killed past this, counted from input set-up
AUDIT_SAMPLE = 200
ORACLE_NODES, ORACLE_MEASURES, ORACLE_SUPPORT = 30, 6, 4

END_TO_END = {"pairs_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# Every `<layer>.s` is self time (span minus child spans), except
# `cli.main.s`, which is the whole traced invocation.
PER_LAYER = {
    "graph.load_graph.s": "s",
    "graph.shortest_path_tree.s": "s",
    "graph.lambda_gamma.s": "s",
    "graph.nodes": "count",
    "graph.edges": "count",
    "graph.ties": "count",
    "measures.load_measures.s": "s",
    "measures.gamma_mass.s": "s",
    "measures.gamma_mass.calls": "count",
    "measures.gamma_reuse": "ratio",
    "measures.gamma_nnz_mean": "edges",
    "metrics.prepare_root.s": "s",
    "metrics.beta_weights.s": "s",
    "metrics.measure_distance.s": "s",
    "metrics.measure_distance.calls": "count",
    "metrics.measure_distance.p50_us": "us",
    "metrics.measure_distance.p99_us": "us",
    "metrics.union_edges_mean": "edges",
    "kernels.distance_matrix.s": "s",
    "kernels.distance_matrix.union_edges": "edges",
    "kernels.distance_matrix.cell_ops": "count",
    "kernels.distance_matrix.useful_frac": "ratio",
    "kernels.gram_matrix.s": "s",
    "kernels.check_negative_definite.s": "s",
    "kernels.min_eigenvalue.s": "s",
    "kernels.write_matrix_csv.s": "s",
    "kernels.write_matrix_csv.bytes": "bytes",
    "cli.main.s": "s",
    "cli.self.s": "s",
    "cli.out_bytes": "bytes",
    "trace.overhead_frac": "ratio",
    "audit.ulp_mismatch": "count",
    "audit.sampled": "count",
}


def load_program():
    """Put the checkout's ``src`` first on the path and import the program
    from there; exit without a result when the sources are absent."""
    if not (SRC / "gsobolev" / "__init__.py").is_file():
        raise SystemExit(f"error: no gsobolev sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gsobolev

    if Path(gsobolev.__file__).resolve().parent != SRC / "gsobolev":
        raise SystemExit(f"error: imported gsobolev from {gsobolev.__file__}, not {SRC}")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "distance" or "gram"
    graph: str  # key into the graph specs: "ref" or "big"
    measures: int
    p: str
    sliced: int = 0  # 0: root 0; K: sliced:K:SEED
    pairs: int = 0  # 0: all pairs; else that many Zipf pairs from a file
    flags: tuple[str, ...] = ()

    def root(self, seed: int) -> str:
        return f"sliced:{self.sliced}:{seed}" if self.sliced else "0"

    def order(self) -> float:
        return math.inf if self.p == "inf" else float(self.p)


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("allpairs", "distance", "ref", 400, "2", flags=("--variant", "sipm")),
        Workload("gram", "gram", "ref", 200, "1.5",
                 flags=("--kernel", "exp-pow", "--t", "1.0")),
        Workload("pairlist", "distance", "big", 2000, "inf", sliced=4, pairs=20_000),
    )
}


@dataclass
class Invocation:
    rc: int
    wall_s: float
    rss_mb: float
    values: int
    digest: str = ""


class Runner:
    """Runs one CLI invocation at a time through a fork server (``child.py``)
    and kills the server and its invocation at the run's deadline.  Use it as
    a context manager, so that every process it starts has ended when the
    block is left."""

    def __init__(self, run_dir: Path, deadline: float) -> None:
        self.run_dir = run_dir
        self.deadline = deadline
        self.log = run_dir / "child.log"
        self.server: subprocess.Popen | None = None
        self.dead = False

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def log_tail(self, lines: int = 5) -> str:
        if not self.log.is_file():
            return ""
        return " | ".join(self.log.read_text(errors="replace").splitlines()[-lines:])

    def _start(self) -> subprocess.Popen:
        with open(self.log, "ab") as log:
            self.server = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(SRC)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log,
                cwd=self.run_dir, start_new_session=True,
            )
        return self.server

    def invoke(self, argv: list[str], values: int, trace_path: Path | None = None) -> Invocation:
        failure = Invocation(-1, math.nan, math.nan, values)
        if self.dead:
            return failure
        server = self.server or self._start()
        result = self.run_dir / "result.json"
        result.unlink(missing_ok=True)
        request = {"argv": argv, "result": str(result),
                   "trace": str(trace_path) if trace_path else None, "log": str(self.log)}
        try:
            server.stdin.write((json.dumps(request) + "\n").encode())
            server.stdin.flush()
            ready, _, _ = select.select([server.stdout], [], [], max(1.0, self.remaining()))
            reply = server.stdout.readline() if ready else b""
        except OSError:
            reply = b""
        if not reply:  # past the deadline, or the server died
            self.close(kill=True)
            self.dead = True
            return failure
        status = json.loads(reply)["status"]
        if status != 0 or not result.is_file():
            return Invocation(status or -1, math.nan, math.nan, values)
        res = json.loads(result.read_text())
        return Invocation(int(res["rc"]), float(res["wall_s"]), float(res["peak_rss_mb"]), values)

    def close(self, kill: bool = False) -> None:
        """End the server: at the end of its input, or by killing its process
        group; then wait for every process of the group."""
        server, self.server = self.server, None
        if server is None:
            return
        try:
            server.stdin.close()
            if not kill:
                server.wait(timeout=5.0)
        except (OSError, subprocess.TimeoutExpired):
            pass
        try:
            os.killpg(server.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        server.wait()
        server.stdout.close()
        for _ in range(200):  # a killed invocation is reaped by init, not by us
            try:
                os.killpg(server.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def provenance() -> dict:
    import numpy
    import scipy

    commit = None  # a plain source tree has none
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if "THREAD" in k},
        "commit": commit,
        "machine": platform.machine(),
    }


@dataclass
class Inputs:
    graph: object  # gsobolev Graph
    graph_path: Path
    measures: list
    measures_path: Path
    pairs: list[tuple[int, int]]
    pairs_arg: str  # "all" or the pair file
    info: dict


def prepare_inputs(wl: Workload, seed: int, run_dir: Path, graphs: dict) -> Inputs:
    import instances

    cg = instances.cached_graph(graphs[wl.graph], WORK / "cache")
    measures_path = run_dir / "inputs.measures"
    measures = instances.make_measures(cg.graph, wl.measures, SUPPORT, seed, measures_path)
    n = len(measures)
    if wl.pairs:
        pairs = instances.zipf_pairs(n, wl.pairs, ZIPF_EXPONENT, seed)
        pairs_arg = str(run_dir / "inputs.pairs")
        instances.write_pairs(pairs, Path(pairs_arg))
    else:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        pairs_arg = "all"
    info = {
        "graph": wl.graph, "nodes": cg.graph.node_count, "edges": cg.graph.edge_count,
        "graph_gen_s": cg.gen_s, "graph_cached": cg.cached, "measures": n,
        "values": len(pairs), "distinct_measures_in_pairs": len({x for pr in pairs for x in pr}),
    }
    return Inputs(cg.graph, cg.path, measures, measures_path, pairs, pairs_arg, info)


def cli_argv(wl: Workload, inp: Inputs, seed: int, out: Path) -> list[str]:
    argv = [wl.command, "--graph", str(inp.graph_path), "--measures", str(inp.measures_path),
            "--root", wl.root(seed), "--p", wl.p, *wl.flags, "--out", str(out)]
    if wl.command == "distance":
        argv += ["--pairs", inp.pairs_arg]
    return argv


def setup_argv(wl: Workload, inp: Inputs, seed: int, one_pair: Path, out: Path) -> list[str]:
    """Time to first answer: one pair through ``distance`` on the workload's
    graph, measures, root and order."""
    return ["distance", "--graph", str(inp.graph_path), "--measures", str(inp.measures_path),
            "--root", wl.root(seed), "--p", wl.p, "--pairs", str(one_pair), "--out", str(out)]


def reference_distance(wl: Workload, inp: Inputs, seed: int):
    """The public per-pair path the audit trusts.  Sliced roots are averaged
    as the CLI averages them (a running sum over the roots in order, then
    one division), so that a bitwise difference counts only the path that
    computed each per-root value."""
    from gsobolev.metrics import measure_distance, prepare_root, sample_roots

    p, g, ms = wl.order(), inp.graph, inp.measures
    roots = sample_roots(g, wl.sliced, seed) if wl.sliced else [0]
    prepared = [prepare_root(g, r) for r in roots]

    def dist(i: int, j: int) -> float:
        acc = 0.0
        for rs, prep in prepared:
            acc += measure_distance(rs, prep, ms[i], ms[j], p)
        return acc / len(prepared)

    return dist


def oracle_check(runner: Runner, seed: int):
    """Order 1 on a small random tree through the CLI against the LP oracle."""
    from gsobolev.graph import save_graph
    from gsobolev.measures import save_measures
    from gsobolev.oracles import wasserstein1_lp
    from gsobolev.synth import random_measures, random_tree

    tree = random_tree(ORACLE_NODES, seed=seed)
    ms = random_measures(tree, ORACLE_MEASURES, ORACLE_SUPPORT, seed=seed)
    gpath, mpath, out = (runner.run_dir / f"oracle.{x}" for x in ("graph", "measures", "csv"))
    save_graph(tree, str(gpath))
    save_measures(ms, str(mpath))
    pairs = [(i, j) for i in range(len(ms)) for j in range(i + 1, len(ms))]
    inv = runner.invoke(["distance", "--graph", str(gpath), "--measures", str(mpath),
                         "--pairs", "all", "--root", "0", "--p", "1", "--out", str(out)],
                        len(pairs))
    if inv.rc != 0:
        result = audit.Audit()
        result.flag(len(pairs), f"oracle run exited {inv.rc}")
        return inv, result
    return inv, audit.audit_distances(
        str(out), pairs, list(range(len(pairs))),
        lambda i, j: wasserstein1_lp(tree, ms[i], ms[j]), rtol=audit.ORACLE_RTOL,
    )


def audit_output(wl: Workload, inp: Inputs, seed: int, out: Path, dist):
    """Audit a workload output against the per-pair path on a seeded sample."""
    rng = np.random.default_rng([seed, 1])
    k = min(AUDIT_SAMPLE, len(inp.pairs))
    sample = sorted(int(x) for x in rng.choice(len(inp.pairs), size=k, replace=False))
    if wl.command == "gram":
        t, p = float(wl.flags[wl.flags.index("--t") + 1]), wl.order()
        return audit.audit_gram(str(out), len(inp.measures), [inp.pairs[x] for x in sample],
                                lambda i, j: math.exp(-t * dist(i, j) ** p))
    return audit.audit_distances(str(out), inp.pairs, sample, dist)


def timed_reps(runner: Runner, argv: list[str], out: Path, values: int,
               seconds: float, reserve: float) -> list[Invocation]:
    """Invoke until ``seconds`` have passed and ``MIN_REPS`` ran, or until
    the deadline (less ``reserve`` for what follows) is near."""
    reps: list[Invocation] = []
    t0 = time.monotonic()
    while True:
        inv = runner.invoke(argv, values)
        reps.append(inv)
        if inv.rc != 0:
            break
        inv.digest = file_digest(out)
        elapsed = time.monotonic() - t0
        if len(reps) >= MIN_REPS and elapsed >= seconds:
            break
        if runner.remaining() - reserve < 2.0 * elapsed / len(reps):
            break
    return reps


def layer_metrics(trace: dict, untraced_wall: float, inp: Inputs, out_bytes: int,
                  audit_result) -> tuple[dict, list[str]]:
    layers, counters = trace["layers"], trace["counters"]

    def layer(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0)

    m = {}
    for name in PER_LAYER:
        if name.endswith(".s") and not name.startswith("cli."):
            m[name] = layer(name[:-2], "self_s")
    m["graph.nodes"] = inp.graph.node_count
    m["graph.edges"] = inp.graph.edge_count
    m["graph.ties"] = counters.get("graph.ties", 0)
    m["measures.gamma_mass.calls"] = layer("measures.gamma_mass", "calls")
    m["measures.gamma_reuse"] = counters.get("measures.gamma_reuse", 0.0)
    m["measures.gamma_nnz_mean"] = counters.get("measures.gamma_nnz_mean", 0.0)
    m["metrics.measure_distance.calls"] = layer("metrics.measure_distance", "calls")
    m["metrics.measure_distance.p50_us"] = layer("metrics.measure_distance", "p50_us")
    m["metrics.measure_distance.p99_us"] = layer("metrics.measure_distance", "p99_us")
    union_sum = counters.get("pair.union_sum", 0) + counters.get("matrix.union_sum", 0)
    evaluated = counters.get("pair.count", 0) + counters.get("matrix.pairs", 0)
    m["metrics.union_edges_mean"] = union_sum / evaluated if evaluated else 0.0
    cell_ops = counters.get("kernels.distance_matrix.cell_ops", 0)
    m["kernels.distance_matrix.union_edges"] = counters.get(
        "kernels.distance_matrix.union_edges", 0.0)
    m["kernels.distance_matrix.cell_ops"] = cell_ops
    m["kernels.distance_matrix.useful_frac"] = (
        counters.get("matrix.union_sum", 0) / cell_ops if cell_ops else 0.0
    )
    m["kernels.write_matrix_csv.bytes"] = counters.get("kernels.write_matrix_csv.bytes", 0)
    m["cli.main.s"] = layer("cli.main", "total_s")
    m["cli.self.s"] = layer("cli.main", "self_s")
    m["cli.out_bytes"] = out_bytes
    m["trace.overhead_frac"] = m["cli.main.s"] / untraced_wall - 1.0
    m["audit.ulp_mismatch"] = audit_result.ulp_mismatch
    m["audit.sampled"] = audit_result.sampled
    absent = sorted(
        {name.rsplit(".", 1)[0] for name in PER_LAYER if name.endswith(".s")
         and name[:-2] not in layers and not name.startswith("cli.")}
    )
    return m, absent


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, graphs: dict) -> dict:
    """One benchmark run: inputs, oracle check, set-up reps, timed reps, the
    audit and, with ``trace``, one traced invocation."""
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"run-{wl.name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    runner = None
    try:
        inp = prepare_inputs(wl, seed, run_dir, graphs)
        dist = reference_distance(wl, inp, seed)
        runner = Runner(run_dir, time.monotonic() + RUN_LIMIT_S)
        attempted = failed = 0
        notes: list[str] = []

        def account(inv: Invocation, wrong: int = 0) -> None:
            nonlocal attempted, failed
            attempted += inv.values
            if inv.rc != 0:
                failed += inv.values
                notes.append(f"an invocation exited {inv.rc}: {runner.log_tail()}")
            else:
                failed += min(wrong, inv.values)

        inv, oracle = oracle_check(runner, seed)
        account(inv, oracle.wrong)
        notes += [f"oracle: {n}" for n in oracle.notes]
        inv, pinned = golden.check(runner, wl)
        account(inv, pinned.wrong)
        notes += [f"golden: {n}" for n in pinned.notes]

        setup = []
        if not trace:
            one_pair, one_out = run_dir / "one.pairs", run_dir / "one.csv"
            first = inp.pairs[0]
            one_pair.write_text(f"{first[0]} {first[1]}\n")
            t0 = time.monotonic()
            while len(setup) < SETUP_REPS or time.monotonic() - t0 < seconds * SETUP_SHARE:
                inv = runner.invoke(setup_argv(wl, inp, seed, one_pair, one_out), 1)
                setup.append(inv)
                if inv.rc != 0:
                    account(inv)
                    break
                check = audit.audit_distances(str(one_out), [first], [0], dist)
                account(inv, check.wrong)

        out = run_dir / "out.csv"
        per_rep = len(inp.pairs)
        reps = timed_reps(runner, cli_argv(wl, inp, seed, out), out, per_rep, seconds,
                          reserve=20.0 if trace else 5.0)
        for inv in reps:
            account(inv, per_rep if inv.digest and inv.digest != reps[0].digest else 0)
        ok_reps = [inv for inv in reps if inv.rc == 0]
        audit_result = None
        if ok_reps:
            audit_result = audit_output(wl, inp, seed, out, dist)
            failed += min(audit_result.wrong, per_rep)
            notes += audit_result.notes

        metrics: dict = {}
        info = {"inputs": inp.info, "reps": len(reps),
                "rep_wall_s": [i.wall_s if i.rc == 0 else None for i in reps],
                "setup_wall_s": [i.wall_s if i.rc == 0 else None for i in setup]}
        ok_setup = [i.wall_s for i in setup if i.rc == 0]
        if ok_reps and ok_setup and not trace:
            metrics = {
                "pairs_per_s": sum(i.values for i in ok_reps) / sum(i.wall_s for i in ok_reps),
                "setup_s": statistics.median(ok_setup),
                "peak_rss_mb": statistics.median(i.rss_mb for i in ok_reps),
            }
        if ok_reps and trace:
            traced_out, trace_path = run_dir / "traced.csv", run_dir / "trace.json"
            inv = runner.invoke(cli_argv(wl, inp, seed, traced_out), per_rep, trace_path)
            same = inv.rc == 0 and file_digest(traced_out) == ok_reps[0].digest
            account(inv, 0 if same else per_rep)
            if inv.rc == 0 and not same:
                notes.append("traced output differs from the untraced output")
            if inv.rc == 0:
                summary = json.loads(trace_path.read_text())
                metrics, absent = layer_metrics(
                    summary, statistics.median(i.wall_s for i in ok_reps), inp,
                    out.stat().st_size, audit_result,
                )
                info.update(absent_layers=absent, missing_layers=summary["missing"],
                            counter_errors=summary["counter_errors"])
        info["ulp_mismatch"] = audit_result.ulp_mismatch if audit_result else None
        info["audit_sampled"] = audit_result.sampled if audit_result else 0
        units = PER_LAYER if trace else END_TO_END
        return {
            "correct": failed == 0 and bool(ok_reps) and set(metrics) == set(units),
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            "info": info,
            "notes": notes,
        }
    finally:
        if runner is not None:
            runner.close()
        shutil.rmtree(run_dir, ignore_errors=True)


def summary_line(name: str, res: dict) -> str:
    parts = [f"{k}={v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items()
             if k in END_TO_END]
    frac = res["failed"] / res["attempted"] if res["attempted"] else math.nan
    parts.append(f"failed_frac={frac:.6g} ratio")
    info = res["info"]
    parts.append(f"(reps {info['reps']}, ulp_mismatch {info['ulp_mismatch']}"
                 f"/{info['audit_sampled']} sampled)")
    return f"{name}: " + "  ".join(parts)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # A terminated run unwinds like an interrupted one, ending its children.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    load_program()
    import instances

    graphs = {"ref": instances.REF, "big": instances.BIG}
    print("provenance: " + json.dumps(provenance()))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        res = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), graphs)
        results[name] = res
        print(f"{name} info: " + json.dumps(res["info"]))
        for note in res["notes"]:
            print(f"{name} note: {note}")
        print(summary_line(name, res))
    if len(names) == 1:
        res = results[names[0]]
        metrics = res["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
