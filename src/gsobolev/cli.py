"""Command-line interface.

Subcommands: ``distance`` (pairwise distances to CSV), ``gram`` (kernel
matrix plus JSON diagnostics), ``verify`` (seeded property suites),
``bench`` (timing table on synthetic instances), ``synth`` (instance file
generation).  Exit codes: 0 on success, 1 when a verification suite fails,
2 on configuration errors, 3 on data errors.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import stat
import sys
import tempfile
import time
from typing import Iterator

import numpy as np

try:
    import resource
except ImportError:  # not on every platform
    resource = None

from .errors import GSobolevError, InvalidBandwidth, InvalidExponent, ParseError, SizeLimitExceeded
from .graph import Graph, lambda_gamma, load_graph, save_graph, shortest_path_tree
from .kernels import (
    GramSpec,
    KERNEL_EXP,
    KERNEL_EXP_POW,
    gram_matrix,
    min_eigenvalue,
    quadratic_form_violations,
    write_matrix_csv,
)
from .measures import DiscreteMeasure, gamma_masses, load_measures, save_measures
from .metrics import (
    VARIANT_SOBOLEV_IPM,
    VARIANT_SOBOLEV_TRANSPORT,
    _check_order,
    _Triangle,
    beta_weights,
    sample_roots,
    sliced_pair_distances,
    sobolev_ipm_distance,
    sobolev_transport_distance,
)
from .oracles import LP_MAX_NODES, wasserstein1_lp
from .synth import (
    FAMILIES,
    PointCloud,
    build_random_graph,
    farthest_point_clustering,
    random_measures,
)
from .textio import CELL_BLOCK, read_table, row_line, utf8_input, write_rows
from .verify import SUITES, run_suites

VARIANT_FLAGS = {"sipm": VARIANT_SOBOLEV_IPM, "st": VARIANT_SOBOLEV_TRANSPORT}
KERNEL_FLAGS = {"exp": KERNEL_EXP, "exp-pow": KERNEL_EXP_POW}


class CliError(Exception):
    """Configuration problem; maps to exit code 2."""


def _parse_seed(text: str) -> int:
    """``--seed``: a nonnegative integer, as numpy's generators need."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}")
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be nonnegative, got {seed}")
    return seed


def _parse_p(text: str) -> float:
    """``--p`` as a float; each command checks its range with the library."""
    try:
        return float(text)
    except ValueError:
        raise CliError(f"cannot parse order p from {text!r}")


def _parse_root(text: str) -> tuple:
    if text.startswith("sliced:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise CliError("sliced root spec must look like sliced:K:SEED")
        try:
            k, seed = int(parts[1]), int(parts[2])
        except ValueError:
            raise CliError("sliced root spec must hold integers")
        if k < 1:
            raise CliError("sliced root count must be at least 1")
        if seed < 0:
            raise CliError("sliced root seed must be nonnegative")
        return ("sliced", k, seed)
    try:
        return (int(text),)
    except ValueError:
        raise CliError(f"root must be an integer or sliced:K:SEED, got {text!r}")


def _require_file(path: str, what: str) -> str:
    if not os.path.isfile(path):
        raise CliError(f"{what} file not found: {path}")
    return path


def _require_out_path(path: str) -> None:
    """Refuse, before any work, an output file path that names a directory
    or lies in a directory that does not exist."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise CliError(f"output directory not found: {folder}")
    if os.path.isdir(path):
        raise CliError(f"output path is a directory: {path}")


def _load_inputs(args: argparse.Namespace) -> tuple[Graph, list[DiscreteMeasure], list[int]]:
    """The graph, the measures and the resolved roots of ``--graph``,
    ``--measures`` and ``--root``; flags are checked before any file is read."""
    graph_path = _require_file(args.graph, "graph")
    measures_path = _require_file(args.measures, "measures")
    spec = _parse_root(args.root)
    g = load_graph(graph_path)
    measures = load_measures(measures_path, g)
    if not measures:
        raise CliError(f"no measures in {measures_path}")
    if spec[0] == "sliced":
        _, k, seed = spec
        if k > g.node_count:
            raise CliError(f"sliced root count {k} exceeds the {g.node_count} nodes")
        return g, measures, sample_roots(g, k, seed)
    if not 0 <= spec[0] < g.node_count:
        raise CliError(f"root {spec[0]} outside [0, {g.node_count})")
    return g, measures, [spec[0]]


_PAIR_LINE = np.dtype([("i", np.int64), ("j", np.int64)])


@utf8_input
def _parse_pairs(path: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct pairs ``i <= j`` of a pair file, sorted, as two index arrays.

    Commas count as blanks, and the lines are read by
    :func:`textio.read_table`; a bad line, or an index outside ``[0, n)``,
    raises a :class:`ParseError` naming it.  Pairs are deduplicated and
    sorted as the keys ``min * n + max``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = io.StringIO(fh.read().replace(",", " "))
    pairs = read_table(text, _PAIR_LINE, path, ("pair line must be 'i j'",) * 2)
    lo, hi = np.minimum(pairs["i"], pairs["j"]), np.maximum(pairs["i"], pairs["j"])
    outside = np.flatnonzero((lo < 0) | (hi >= n))
    if outside.size:
        raise ParseError(f"{path}:{row_line(text, int(outside[0]))}: index outside [0, {n})")
    keys = np.unique(lo * n + hi)
    return (keys // n).astype(np.intp), (keys % n).astype(np.intp)


def _write_distance_csv(
    path: str, n: int, first: np.ndarray | None, second: np.ndarray | None,
    values: np.ndarray,
) -> int:
    """``i,j,distance`` lines, the distance at 17 significant digits, one
    block of ``CELL_BLOCK`` pairs at a time; the count of numbers formatted
    by Python (see :func:`textio.write_rows`).  The pairs are ``first[k]``
    and ``second[k]`` or, with both ``None``, every ``i < j`` of ``n``
    measures in row-major order, whose ``i`` and ``j`` columns are built
    per block, so they are never listed."""
    if first is None:
        tri, block = _Triangle(n), np.empty(2 * CELL_BLOCK, np.int64)
    slow = 0
    with open(path, "wb") as fh:
        fh.write(b"i,j,distance\n")
        for s in range(0, values.size, CELL_BLOCK):
            e = min(s + CELL_BLOCK, values.size)
            pairs = tri.pairs(s, e, block) if first is None else (first[s:e], second[s:e])
            slow += write_rows(fh, (np.column_stack(pairs), values[s:e]), ",")
    return slow


def _new_file_beside(path: str) -> str:
    """The name of a new empty file, created in ``path``'s folder with the
    mode 0o666 less the umask."""
    folder, name = os.path.split(path)
    while True:
        tmp = os.path.join(folder, f".{name}.{os.urandom(4).hex()}.tmp")
        with contextlib.suppress(FileExistsError):
            os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
            return tmp


@contextlib.contextmanager
def _replacing(*paths: str) -> Iterator[list[str]]:
    """Files for the block to write in place of ``paths``, one each.  A path
    that names a regular file, or nothing, gets a new empty file beside it,
    renamed onto it when the block ends and removed if the block raises, so
    a failed command creates or changes no such file.  Any other path (a
    device such as ``/dev/null``, a pipe, a terminal) is handed to the block
    as it is, to be written in place as ``open`` would.

    A new file gets the mode ``open(path, "w")`` would give it (0o666 less
    the umask), or the mode of the file it replaces; a symbolic link's
    target is replaced, as ``open`` would write through it.
    """
    staged: list[tuple[str, str | None]] = []  # (file written, path it replaces)
    try:
        for path in paths:
            try:
                mode = os.stat(path).st_mode
            except FileNotFoundError:
                mode = None
            if mode is not None and not stat.S_ISREG(mode):
                staged.append((path, None))
                continue
            target = os.path.realpath(path)
            staged.append((_new_file_beside(target), target))
            if mode is not None:
                os.chmod(staged[-1][0], stat.S_IMODE(mode))
        yield [written for written, _ in staged]
        for tmp, target in staged:
            if target is not None:
                os.replace(tmp, target)
    except BaseException:
        for tmp, target in staged:
            if target is not None:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(tmp)
        raise


def _peak_rss() -> str:
    """``", peak RSS <MB>"`` of this process so far, or ``""`` where the
    ``resource`` module is missing."""
    if resource is None:
        return ""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    per_mb = 1 << 20 if sys.platform == "darwin" else 1 << 10  # bytes there, KiB here
    return f", peak RSS {peak / per_mb:.1f} MB"


# The most bytes a command may hold in one kind of array: two of gram's n x n
# arrays (D and K, then K and eigvalsh's copy of it), the running sum of
# distance --pairs all, or the point cloud or the measures that synth and
# bench draw.  It admits gram up to 16,384 measures and all pairs up to 32,768.
_BYTES_BUDGET = 4 << 30

# Bytes a drawn measure keeps, as traced: per measure its object, its two
# tuples and its hash; per support point a node int, a mass float and their
# two tuple slots (node ids above 256 are ints of their own).
_MEASURE_BYTES = 272
_POINT_BYTES = 72


def _check_budget(doing: str, nbytes: int, what: str) -> None:
    """Refuse ``doing`` before it allocates, when its ``what`` would take
    more than ``_BYTES_BUDGET`` bytes."""
    if nbytes > _BYTES_BUDGET:
        raise SizeLimitExceeded(
            f"{doing} would hold {nbytes:,} bytes of {what}, "
            f"above the budget of {_BYTES_BUDGET:,} bytes"
        )


def _check_instance_budget(
    command: str, points: int, dim: int, count: int, support_size: int
) -> None:
    """Refuse ``command`` before it draws a point cloud of ``points`` ×
    ``dim`` float64s or ``count`` measures of ``support_size`` nodes and
    masses above the budget."""
    _check_budget(f"{command} on {points:,} points of dimension {dim:,}",
                  points * dim * 8, "point cloud")
    _check_budget(f"{command} on {count:,} measures of {support_size:,} points",
                  count * (_MEASURE_BYTES + support_size * _POINT_BYTES), "measures")


def cmd_distance(args: argparse.Namespace) -> int:
    variant = VARIANT_FLAGS[args.variant]
    p = _check_order(_parse_p(args.p), allow_inf=variant == VARIANT_SOBOLEV_IPM)
    _require_out_path(args.out)
    g, measures, roots = _load_inputs(args)
    n = len(measures)
    first = second = None
    if args.pairs == "all":
        _check_budget(f"distance --pairs all on {n:,} measures", n * (n - 1) // 2 * 8,
                      "n^2-sized arrays")
    else:
        first, second = _parse_pairs(_require_file(args.pairs, "pairs"), n)

    values, prep_ms, eval_ms = sliced_pair_distances(g, measures, roots, first, second, p, variant)
    with _replacing(args.out) as (csv_path,):
        slow = _write_distance_csv(csv_path, n, first, second, values)
    print(
        f"distance: {values.size} pairs, {len(roots)} root(s), "
        f"prep {prep_ms:.1f} ms, eval {eval_ms:.1f} ms{_peak_rss()}, "
        f"{slow} number(s) formatted by Python -> {args.out}",
        file=sys.stderr,
    )
    return 0


def cmd_gram(args: argparse.Namespace) -> int:
    spec = GramSpec(
        p=_parse_p(args.p), t=args.t, form=KERNEL_FLAGS[args.kernel],
        allow_outside_range=args.allow_outside_range,
    )
    _require_out_path(args.out)
    _require_out_path(args.out + ".json")
    g, measures, roots = _load_inputs(args)
    n = len(measures)
    _check_budget(f"gram on {n:,} measures", 2 * n * n * 8, "n^2-sized arrays")
    D, prep_ms, eval_ms = sliced_pair_distances(
        g, measures, roots, None, None, spec.p, into=np.zeros((n, n))
    )

    t0 = time.perf_counter()
    K = gram_matrix(D, spec)
    gram_ms = eval_ms + (time.perf_counter() - t0) * 1e3

    # K is written before the diagnostics load their BLAS buffers, and D is
    # dropped before eigvalsh copies K, so no more than two n x n arrays are
    # ever alive.  Both files are renamed into place after the last check.
    with _replacing(args.out, args.out + ".json") as (csv_path, json_path):
        slow = write_matrix_csv(K, csv_path)
        nd_violations, _ = quadratic_form_violations(D, seed=args.seed)
        del D
        sidecar = {
            "min_eigenvalue": min_eigenvalue(K),
            "nd_violations": nd_violations,
            "preprocessing_ms": prep_ms,
            "gram_ms": gram_ms,
        }
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=2)
            fh.write("\n")
    print(
        f"gram: {n} measures, min eigenvalue {sidecar['min_eigenvalue']:.3e}"
        f"{_peak_rss()}, {slow} number(s) formatted by Python -> {args.out} (+.json)",
        file=sys.stderr,
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.out:
        _require_out_path(args.out)
    reports = run_suites([args.suite], seed=args.seed)
    payload = [r.as_dict() for r in reports]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    ok = True
    for rep in reports:
        for chk in rep.checks:
            status = "ok" if chk.passed else "FAIL"
            print(
                f"[{rep.suite}] {chk.name}: {status} "
                f"({chk.instances} instances, {chk.violations} violations, "
                f"worst {chk.worst:.3e})"
            )
        ok = ok and rep.passed
    if not ok:
        print(f"verification FAILED (offending seed: {args.seed})")
        return 1
    print("verification passed")
    return 0


def _fastest(fn, repeat: int = 5):
    """``fn()``'s last result and its fastest of ``repeat`` calls, in ms."""
    best = math.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best * 1e3


def _with_weights(prep, p: float):
    """``prep`` once its order-``p`` edge weights are computed and cached."""
    beta_weights(prep, p)
    return prep


def _sample_pairs(n: int, count: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Every pair ``i < j`` of ``n`` items if there are at most ``count``,
    else ``count`` of them drawn by ``rng`` without replacement; in
    row-major order either way.  The pairs are numbered, not listed, so
    only the drawn ones are built."""
    tri = _Triangle(n)
    if tri.size > count:
        picked = np.sort(rng.choice(tri.size, size=count, replace=False))
    else:
        picked = np.arange(tri.size)
    return list(zip(*(x.tolist() for x in tri.locate(picked))))


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        sizes = [int(tok) for tok in args.sizes.split(",")]
    except ValueError:
        raise CliError(f"--sizes must be comma-separated integers, got {args.sizes!r}")
    if min(sizes) < 2:
        raise CliError(f"every --sizes entry needs at least 2 nodes, got {args.sizes!r}")
    if args.count < 2 or args.max_pairs < 1:
        raise CliError("bench needs --count >= 2 and --max-pairs >= 1 to time any pair")
    if not 1 <= args.support_size <= min(sizes):
        raise CliError(
            f"--support-size must be in [1, {min(sizes)}] (the smallest size), "
            f"got {args.support_size}"
        )
    families = args.families.split(",")
    for fam in families:
        if fam not in FAMILIES:
            raise CliError(f"unknown family {fam!r}; pick from {FAMILIES}")
    p = _check_order(_parse_p(args.p))
    _require_out_path(args.out)
    _check_instance_budget("bench", 4 * max(sizes), 2, args.count, args.support_size)
    rng = np.random.default_rng(args.seed)
    rows = []
    for m in sizes:
        for fam in families:
            pts = PointCloud(rng.random((4 * m, 2)))
            centroids, _ = farthest_point_clustering(pts, m, seed=args.seed)
            g = build_random_graph(centroids, fam, seed=args.seed)
            measures = random_measures(g, args.count, args.support_size, seed=args.seed)
            with tempfile.TemporaryDirectory() as tmp:
                graph_path = os.path.join(tmp, "bench.graph")
                save_graph(g, graph_path)
                _, parse_ms = _fastest(lambda: load_graph(graph_path))
            rs, tree_ms = _fastest(lambda: shortest_path_tree(g, 0))
            prep, lambda_ms = _fastest(lambda: _with_weights(lambda_gamma(g, rs), p))
            table, gamma_ms = _fastest(lambda: gamma_masses(rs, measures))
            vecs = [table.row(k) for k in range(len(table))]
            prep_ms = tree_ms + lambda_ms + gamma_ms

            pairs = _sample_pairs(len(measures), args.max_pairs, rng)
            # per pair: the fastest of 3 loops over the pairs, over their count
            s_ns, st_ns = (
                _fastest(lambda: [dist(prep, vecs[i], vecs[j], p) for i, j in pairs], 3)[1]
                * 1e6 / len(pairs)
                for dist in (sobolev_ipm_distance, sobolev_transport_distance)
            )
            union = float(
                np.mean(
                    [np.union1d(vecs[i].edge_ids, vecs[j].edge_ids).size for i, j in pairs]
                )
            )
            if g.node_count <= LP_MAX_NODES:
                lp_pairs = pairs[: min(len(pairs), 20)]
                lp_ms = _fastest(
                    lambda: [wasserstein1_lp(g, measures[i], measures[j]) for i, j in lp_pairs], 3
                )[1] / len(lp_pairs)
                lp_cell = f"{lp_ms:.3f}"
            else:
                lp_cell = ""
            rows.append(
                {
                    "M": m,
                    "family": fam,
                    "edges": g.edge_count,
                    "parse_ms": f"{parse_ms:.2f}",
                    "preprocessing_ms": f"{prep_ms:.2f}",
                    "tree_ms": f"{tree_ms:.2f}",
                    "lambda_ms": f"{lambda_ms:.2f}",
                    "gamma_ms": f"{gamma_ms:.2f}",
                    "per_pair_ns_sipm": f"{s_ns:.0f}",
                    "per_pair_ns_st": f"{st_ns:.0f}",
                    "per_pair_ms_lp": lp_cell,
                    "mean_union_edges": f"{union:.1f}",
                }
            )
            print(
                f"bench M={m} family={fam}: |E|={g.edge_count}, parse {parse_ms:.1f} ms, "
                f"prep {prep_ms:.1f} ms "
                f"(tree {tree_ms:.1f}, lambda {lambda_ms:.1f}, gamma {gamma_ms:.1f}), "
                f"sipm {s_ns:.0f} ns/pair, st {st_ns:.0f} ns/pair, "
                f"lp {lp_cell or 'skipped'} ms/pair, mean union {union:.1f} edges",
                file=sys.stderr,
            )
    header = list(rows[0].keys())
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(row[k]) for k in header) + "\n")
    print(f"bench table -> {args.out}", file=sys.stderr)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise CliError(f"--count must be at least 1, got {args.count}")
    if args.m < 2:
        raise CliError(f"--m must be at least 2, got {args.m}")
    if args.points < args.m:
        raise CliError(f"--points must be >= --m ({args.points} < {args.m})")
    if not 1 <= args.support_size <= args.m:
        raise CliError(f"--support-size must be in [1, --m = {args.m}], got {args.support_size}")
    if args.dim < 1:
        raise CliError(f"--dim must be at least 1, got {args.dim}")
    if args.family not in FAMILIES:
        raise CliError(f"unknown family {args.family!r}; pick from {FAMILIES}")
    for suffix in (".graph", ".measures"):
        _require_out_path(args.out_prefix + suffix)
    _check_instance_budget("synth", args.points, args.dim, args.count, args.support_size)
    rng = np.random.default_rng(args.seed)
    pts = PointCloud(rng.random((args.points, args.dim)))
    centroids, _ = farthest_point_clustering(pts, args.m, seed=args.seed)
    g = build_random_graph(centroids, args.family, seed=args.seed)
    measures = random_measures(g, args.count, args.support_size, seed=args.seed)
    save_graph(g, args.out_prefix + ".graph")
    save_measures(measures, args.out_prefix + ".measures")
    print(
        f"synth: {g.node_count} nodes, {g.edge_count} edges, {len(measures)} measures "
        f"-> {args.out_prefix}.graph/.measures",
        file=sys.stderr,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="gsobolev",
        description="Closed-form Sobolev-type distances and kernels for measures on a graph",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p_: argparse.ArgumentParser) -> None:
        p_.add_argument("--graph", required=True, help="graph file")
        p_.add_argument("--measures", required=True, help="measure file")
        p_.add_argument("--root", default="0", help="root node id, or sliced:K:SEED")
        p_.add_argument("--p", default="1", help="order, a decimal >= 1 or 'inf'")

    d = sub.add_parser("distance", help="pairwise distances to CSV")
    common(d)
    d.add_argument("--variant", choices=sorted(VARIANT_FLAGS), default="sipm")
    d.add_argument("--pairs", default="all", help="'all' or a file of 'i j' lines")
    d.add_argument("--out", required=True)
    d.set_defaults(func=cmd_distance)

    g = sub.add_parser("gram", help="kernel matrix plus JSON diagnostics")
    common(g)
    g.add_argument("--kernel", choices=sorted(KERNEL_FLAGS), default="exp")
    g.add_argument("--t", type=float, default=1.0, help="bandwidth, > 0")
    g.add_argument("--allow-outside-range", action="store_true")
    g.add_argument("--seed", type=_parse_seed, default=0, help="seed of the definiteness trials")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gram)

    v = sub.add_parser("verify", help="run a seeded property suite")
    v.add_argument("--suite", choices=sorted(SUITES) + ["all"], default="all")
    v.add_argument("--seed", type=_parse_seed, default=0)
    v.add_argument("--out", help="optional JSON report path")
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bench", help="timing table on synthetic instances")
    b.add_argument("--sizes", default="100,1000", help="comma-separated node counts")
    b.add_argument("--families", default="log,sqrt")
    b.add_argument("--p", default="2")
    b.add_argument("--count", type=int, default=20, help="measures per instance")
    b.add_argument("--support-size", type=int, default=5)
    b.add_argument("--max-pairs", type=int, default=500)
    b.add_argument("--seed", type=_parse_seed, default=0)
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_bench)

    s = sub.add_parser("synth", help="write synthetic instance files")
    s.add_argument("--points", type=int, default=1000)
    s.add_argument("--dim", type=int, default=2)
    s.add_argument("--m", type=int, default=100, help="number of graph nodes")
    s.add_argument("--family", default="log")
    s.add_argument("--count", type=int, default=10, help="number of measures")
    s.add_argument("--support-size", type=int, default=5)
    s.add_argument("--seed", type=_parse_seed, default=0)
    s.add_argument("--out-prefix", required=True)
    s.set_defaults(func=cmd_synth)
    return top


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, InvalidExponent, InvalidBandwidth) as exc:  # a bad flag value
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GSobolevError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
