"""Seeded, cached inputs for the benchmark workloads.

Two graphs, both fixed (graph seed 0) so that every workload seed runs on
the same ambient graph and only the measures, pairs and sliced roots move:

* ``ref``: the reference instance, built with the call sequence of
  ``gsobolev synth --points 6000 --m 5000 --family log --seed 0``
  (5000 nodes, 42,586 edges).
* ``big``: ``build_random_graph`` over 5e4 uniform points (540,989
  edges).  It skips ``farthest_point_clustering``, whose N x M x d distance
  tensor needs several GB at this size.

Graphs are written once per checkout under the cache directory, as the text
file the CLI reads plus an ``.npz`` copy the audit loads quickly.  Measures
and pair files are cheap and are regenerated from the workload seed on every
run, so the same seed always gives byte-identical inputs.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gsobolev.graph import Graph, save_graph
from gsobolev.measures import DiscreteMeasure, save_measures
from gsobolev.synth import (
    PointCloud,
    build_random_graph,
    farthest_point_clustering,
    random_measures,
)

GRAPH_SEED = 0


@dataclass(frozen=True)
class GraphSpec:
    """How to build one benchmark graph.  ``centroids`` of 0 means the
    points are the nodes (no clustering)."""

    name: str
    points: int
    centroids: int
    family: str = "log"


REF = GraphSpec("ref", points=6000, centroids=5000)
BIG = GraphSpec("big", points=50_000, centroids=0)


def _build(spec: GraphSpec) -> Graph:
    rng = np.random.default_rng(GRAPH_SEED)
    pts = PointCloud(rng.random((spec.points, 2)))
    if spec.centroids:
        pts, _ = farthest_point_clustering(pts, spec.centroids, seed=GRAPH_SEED)
    return build_random_graph(pts, spec.family, seed=GRAPH_SEED)


@dataclass(frozen=True)
class CachedGraph:
    graph: Graph
    path: Path
    gen_s: float
    cached: bool


def cached_graph(spec: GraphSpec, cache_dir: Path) -> CachedGraph:
    """Load ``spec``'s graph from the cache, building it on first use."""
    key = f"{spec.name}-{spec.points}-{spec.centroids}-{spec.family}-s{GRAPH_SEED}"
    text_path = cache_dir / f"{key}.graph"
    npz_path = cache_dir / f"{key}.npz"
    meta_path = cache_dir / f"{key}.json"
    if text_path.is_file() and npz_path.is_file() and meta_path.is_file():
        with np.load(npz_path) as z:
            g = Graph(int(z["n"]), z["u"], z["v"], z["w"])
        gen_s = json.loads(meta_path.read_text())["gen_s"]
        return CachedGraph(g, text_path, gen_s, cached=True)
    cache_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    g = _build(spec)
    tmp = text_path.with_suffix(".graph.tmp")
    save_graph(g, str(tmp))
    gen_s = time.perf_counter() - t0
    os.replace(tmp, text_path)
    tmp_npz = cache_dir / f"{key}.tmp.npz"
    np.savez(tmp_npz, n=g.node_count, u=g.edge_u, v=g.edge_v, w=g.edge_w)
    os.replace(tmp_npz, npz_path)
    meta_path.write_text(
        json.dumps({"nodes": g.node_count, "edges": g.edge_count, "gen_s": gen_s})
    )
    return CachedGraph(g, text_path, gen_s, cached=False)


def make_measures(
    g: Graph, count: int, support: int, seed: int, path: Path
) -> list[DiscreteMeasure]:
    """Draw and write ``count`` measures.  On the reference graph with seed 0
    these are the first ``count`` measures of the ROADMAP reference instance
    (``random_measures`` draws measure by measure)."""
    measures = random_measures(g, count, support, seed=seed)
    save_measures(measures, str(path))
    return measures


def zipf_pairs(n: int, count: int, exponent: float, seed: int) -> list[tuple[int, int]]:
    """``count`` distinct unordered pairs ``i < j`` of ``n`` measures, each
    endpoint drawn with Zipf popularity over a seeded ranking, so a few
    measures recur in many pairs."""
    rng = np.random.default_rng(seed)
    rank_to_measure = rng.permutation(n)
    weights = 1.0 / np.arange(1, n + 1) ** exponent
    weights /= weights.sum()
    seen: dict[tuple[int, int], None] = {}
    while len(seen) < count:
        a = rank_to_measure[rng.choice(n, size=count, p=weights)]
        b = rank_to_measure[rng.choice(n, size=count, p=weights)]
        for i, j in zip(a.tolist(), b.tolist()):
            if i != j:
                seen.setdefault((min(i, j), max(i, j)), None)
                if len(seen) == count:
                    break
    return sorted(seen)


def write_pairs(pairs: list[tuple[int, int]], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, j in pairs:
            fh.write(f"{i} {j}\n")
