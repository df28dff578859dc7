"""In-memory span recorder around the public functions of each layer.

``SpanRecorder.install`` replaces every binding of a layer function in the
loaded ``gsobolev`` modules (``graph.load_graph`` and ``cli.load_graph``
alike) with a wrapper that records ``(span id, name, parent id, start, end)``.
Nothing in the program changes; the wrappers only time calls and keep
references to a few arguments and results, from which the counters are
computed after the run.  A function that no longer exists is listed as
missing and simply not traced, so a later rewrite never breaks a run.

Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
from time import perf_counter

import numpy as np

LAYERS = (
    "graph.load_graph",
    "graph.shortest_path_tree",
    "graph.lambda_gamma",
    "measures.load_measures",
    "measures.gamma_mass",
    "metrics.prepare_root",
    "metrics.beta_weights",
    "metrics.measure_distance",
    "kernels.distance_matrix",
    "kernels.gram_matrix",
    "kernels.check_negative_definite",
    "kernels.min_eigenvalue",
    "kernels.write_matrix_csv",
    "cli.main",
)

# Layers whose arguments and results feed the counters.
CAPTURED = (
    "graph.shortest_path_tree",
    "measures.gamma_mass",
    "metrics.measure_distance",
    "kernels.distance_matrix",
    "kernels.write_matrix_csv",
)


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, float, float]] = []
        self.captured: dict[str, list] = {name: [] for name in CAPTURED}
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def install(self) -> None:
        """Wrap every layer function wherever a loaded gsobolev module binds it."""
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if name == "gsobolev" or name.startswith("gsobolev.")
        ]
        for layer in LAYERS:
            mod_name, fn_name = layer.split(".")
            owner = sys.modules.get(f"gsobolev.{mod_name}")
            original = getattr(owner, fn_name, None)
            if not callable(original):
                self.missing.append(layer)
                continue
            wrapped = self._wrap(layer, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    def _wrap(self, name: str, fn):
        spans, ids, local = self.spans, self._ids, self._local
        keep = self.captured[name].append if name in self.captured else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((span_id, name, parent, t0, t1))
            if keep is not None:
                keep((args, kwargs, result))
            return result

        return traced

    def summary(self) -> dict:
        """Per-layer calls, inclusive and self time, per-call percentiles,
        plus the counters; JSON-ready."""
        child_s: dict[int, float] = {}
        for _, _, parent, t0, t1 in self.spans:
            child_s[parent] = child_s.get(parent, 0.0) + (t1 - t0)
        durations: dict[str, list[float]] = {}
        self_s: dict[str, float] = {}
        for span_id, name, _, t0, t1 in self.spans:
            durations.setdefault(name, []).append(t1 - t0)
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child_s.get(span_id, 0.0)
        layers = {}
        for name, durs in durations.items():
            us = np.asarray(durs) * 1e6
            layers[name] = {
                "calls": len(durs),
                "total_s": float(np.sum(durs)),
                "self_s": self_s[name],
                "p50_us": float(np.percentile(us, 50)),
                "p99_us": float(np.percentile(us, 99)),
            }
        counters, errors = self._counters()
        return {"layers": layers, "counters": counters, "missing": self.missing,
                "counter_errors": errors}

    def _counters(self) -> tuple[dict, dict]:
        counters: dict[str, float] = {}
        errors: dict[str, str] = {}
        gamma_ids: dict[tuple, np.ndarray] = {}
        for key, fn in (
            ("ties", self._ties),
            ("gamma", lambda: self._gamma(gamma_ids)),
            ("pairs", lambda: self._pair_unions(gamma_ids)),
            ("matrix", self._matrix),
            ("write", self._write_bytes),
        ):
            # A later rewrite may change a layer's arguments or results; the
            # counter then goes absent and the reason is reported.
            try:
                counters.update(fn())
            except Exception as exc:
                errors[key] = repr(exc)
        return counters, errors

    def _ties(self) -> dict:
        calls = self.captured["graph.shortest_path_tree"]
        return {"graph.ties": sum(len(rs.warnings) for _, _, rs in calls)} if calls else {}

    def _gamma(self, gamma_ids: dict) -> dict:
        calls = self.captured["measures.gamma_mass"]
        if not calls:
            return {}
        for args, kwargs, vec in calls:
            key = (_arg(args, kwargs, 0, "rs").root, _arg(args, kwargs, 1, "mu"))
            gamma_ids.setdefault(key, vec.edge_ids)
        return {
            "measures.gamma_reuse": (len(calls) - len(gamma_ids)) / len(calls),
            "measures.gamma_nnz_mean": float(np.mean([ids.size for ids in gamma_ids.values()])),
        }

    def _pair_unions(self, gamma_ids: dict) -> dict:
        calls = self.captured["metrics.measure_distance"]
        if not calls:
            return {}
        total = 0
        for args, kwargs, _ in calls:
            root = _arg(args, kwargs, 0, "rs").root
            a = gamma_ids[(root, _arg(args, kwargs, 2, "mu"))]
            b = gamma_ids[(root, _arg(args, kwargs, 3, "nu"))]
            total += np.union1d(a, b).size
        return {"pair.union_sum": total, "pair.count": len(calls)}

    def _matrix(self) -> dict:
        """Dense-scan accounting of ``distance_matrix``: the scan touches
        every cell of the N(N-1)/2 x (union of all touched edges) block,
        while each pair needs only the union of its own two edge sets."""
        calls = self.captured["kernels.distance_matrix"]
        if not calls:
            return {}
        union_width, cell_ops, union_sum, pairs = [], 0, 0, 0
        for args, kwargs, _ in calls:
            vectors = _arg(args, kwargs, 1, "vectors")
            n = len(vectors)
            sizes = np.array([vec.edge_ids.size for vec in vectors], dtype=np.int64)
            _, touch = np.unique(
                np.concatenate([vec.edge_ids for vec in vectors]), return_counts=True
            )
            # sum over i < j of |E_i u E_j| = (n - 1) sum |E_i| - sum_e C(c_e, 2)
            union_sum += int((n - 1) * sizes.sum() - (touch * (touch - 1) // 2).sum())
            union_width.append(touch.size)
            cell_ops += n * (n - 1) // 2 * touch.size
            pairs += n * (n - 1) // 2
        return {
            "kernels.distance_matrix.union_edges": float(np.mean(union_width)),
            "kernels.distance_matrix.cell_ops": cell_ops,
            "matrix.union_sum": union_sum,
            "matrix.pairs": pairs,
        }

    def _write_bytes(self) -> dict:
        calls = self.captured["kernels.write_matrix_csv"]
        if not calls:
            return {}
        return {
            "kernels.write_matrix_csv.bytes": sum(
                os.path.getsize(_arg(args, kwargs, 1, "path")) for args, kwargs, _ in calls
            )
        }
