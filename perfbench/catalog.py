"""The benchmark's metric catalogue: names, units, directions, bounds.

``BENCHMARK.json`` at the repository root is rendered from this module
(``python3 perfbench/catalog.py > BENCHMARK.json``) and the smoke test
checks that the two agree.  ``LAYER_MAP`` records, for each per-layer
metric, which end-to-end metric it should move and on which workload,
so a change to one layer can name its prediction before it is measured.
"""

from __future__ import annotations

import json

#: (name, why) — the workloads, in run order.
WORKLOADS = (
    ("table1_mesh",
     "Paper Table-1 path: cold proposed sparsify plus evaluate on the "
     "4k-node thermal2 stand-in; candidate scoring at low ball incidence "
     "is ~85% of the time."),
    ("hub_cluster",
     "Dense-ball regime: bipartite recommender, partition preconditioner "
     "and PCG spectral clustering checked by ARI; the only workload that "
     "runs the partitioning layer."),
    ("pg_transient",
     "Downstream use: the ibmpg4t sparsifier preconditions a 20 ns PCG "
     "transient that takes ~40% of each op, so sparsify cost counts "
     "against the solve it serves."),
    ("service_mixed",
     "repro serve, 2 thread workers: one client loops small proposed jobs, "
     "another PATCHes an evolving graph, so writes queue behind reads."),
)

#: (name, unit, better, bound) — what a user of the system sees.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("sparsify_s", "s", "lower", 0.25),
    ("total_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("kappa", "ratio", "lower", 0.05),
    ("pcg_iters", "count", "lower", 0.1),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: (name, unit, better) — one layer each; reported by the traced run.
PER_LAYER = (
    ("graph.generate_s", "s", "lower"),
    ("tree.spanning_s", "s", "lower"),
    ("tree.forest_s", "s", "lower"),
    ("core.tree_phase_s", "s", "lower"),
    ("core.tree_phase_candidates", "count", "lower"),
    ("core.general_score_s", "s", "lower"),
    ("core.general_candidates", "count", "lower"),
    ("core.us_per_candidate", "us", "lower"),
    ("core.similarity_s", "s", "lower"),
    ("core.rounds", "count", "lower"),
    ("core.cached_balls", "count", "higher"),
    ("core.pick_yield", "ratio", "higher"),
    ("linalg.factorize_s", "s", "lower"),
    ("linalg.factor_nnz", "count", "lower"),
    ("linalg.spai_s", "s", "lower"),
    ("linalg.spai_nnz", "count", "lower"),
    ("linalg.kappa_s", "s", "lower"),
    ("linalg.pcg_s", "s", "lower"),
    ("linalg.pcg_calls", "count", "lower"),
    ("linalg.pcg_iters_total", "count", "lower"),
    ("linalg.precond_solve_s", "s", "lower"),
    ("linalg.precond_solves", "count", "lower"),
    ("linalg.cholesky_s", "s", "lower"),
    ("powergrid.dc_s", "s", "lower"),
    ("powergrid.transient_s", "s", "lower"),
    ("powergrid.steps", "count", "lower"),
    ("powergrid.max_dev_mv", "mV", "lower"),
    ("partitioning.precond_s", "s", "lower"),
    ("partitioning.embed_s", "s", "lower"),
    ("partitioning.kmeans_s", "s", "lower"),
    ("partitioning.ari", "ratio", "higher"),
    ("api.cache_hits", "count", "higher"),
    ("api.cache_misses", "count", "lower"),
    ("api.cache_stores", "count", "lower"),
    ("service.completed_runs", "count", "higher"),
    ("service.dedup_hits", "count", "higher"),
    ("service.queue_wait_s", "s", "lower"),
    ("service.run_s", "s", "lower"),
    ("service.http_overhead_s", "s", "lower"),
    ("service.job_tail_s", "s", "lower"),
    ("service.job_tail_pct", "%", "higher"),
    ("service.job_samples", "count", "higher"),
    ("service.patch_p50_s", "s", "lower"),
    ("service.patch_tail_s", "s", "lower"),
    ("service.patch_tail_pct", "%", "higher"),
    ("service.patch_samples", "count", "higher"),
    ("service.patch_wait_s", "s", "lower"),
    ("incremental.delta_s", "s", "lower"),
    ("incremental.reranked_edges", "count", "lower"),
    ("incremental.touched_nodes", "count", "lower"),
    ("incremental.rebuilds", "count", "lower"),
    ("bench.host_speed", "ratio", "higher"),
    ("bench.error_rate", "ratio", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

_ALL = ("table1_mesh", "hub_cluster", "pg_transient", "service_mixed")

#: per-layer metric -> [(end-to-end metric it should move, workloads)].
LAYER_MAP = {
    "graph.generate_s": [("setup_s", _ALL[:3])],
    "tree.spanning_s": [("sparsify_s", ("table1_mesh",))],
    "tree.forest_s": [("sparsify_s", ("table1_mesh",))],
    "core.tree_phase_s": [("sparsify_s", _ALL[:3])],
    "core.tree_phase_candidates": [("sparsify_s", _ALL[:3])],
    "linalg.factorize_s": [("sparsify_s", ("table1_mesh",))],
    "linalg.factor_nnz": [("sparsify_s", ("table1_mesh",))],
    "linalg.spai_s": [("sparsify_s", ("table1_mesh",))],
    "linalg.spai_nnz": [("sparsify_s", ("table1_mesh",))],
    "linalg.kappa_s": [("total_s", ("table1_mesh",))],
    "partitioning.precond_s": [("total_s", ("hub_cluster",))],
    "partitioning.embed_s": [("total_s", ("hub_cluster",))],
    "partitioning.kmeans_s": [("total_s", ("hub_cluster",))],
    "service.patch_wait_s": [("service.patch_tail_s", ("service_mixed",))],
    # Readings, not costs: output quality and the benchmark's own health.
    "partitioning.ari": [],
    "powergrid.max_dev_mv": [],
    "bench.host_speed": [],
    "bench.error_rate": [],
    "trace.overhead_s": [],
}
for _name in ("core.general_score_s", "core.general_candidates",
              "core.us_per_candidate", "core.similarity_s", "core.rounds",
              "core.cached_balls", "core.pick_yield"):
    LAYER_MAP[_name] = [
        ("sparsify_s", ("table1_mesh", "hub_cluster")),
        ("total_s", ("service_mixed", "pg_transient")),
        ("service.patch_tail_s", ("service_mixed",)),
    ]
for _name in ("linalg.pcg_s", "linalg.pcg_calls", "linalg.pcg_iters_total",
              "linalg.precond_solve_s", "linalg.precond_solves",
              "linalg.cholesky_s", "powergrid.dc_s",
              "powergrid.transient_s", "powergrid.steps"):
    LAYER_MAP[_name] = [("total_s", ("pg_transient",))]
for _name in ("api.cache_hits", "api.cache_misses", "api.cache_stores",
              "service.completed_runs", "service.dedup_hits",
              "service.queue_wait_s", "service.run_s",
              "service.http_overhead_s", "service.job_tail_s",
              "service.job_tail_pct", "service.job_samples"):
    LAYER_MAP[_name] = [("total_s", ("service_mixed",))]
for _name in ("service.patch_p50_s", "service.patch_tail_s",
              "service.patch_tail_pct", "service.patch_samples",
              "incremental.delta_s", "incremental.reranked_edges",
              "incremental.touched_nodes", "incremental.rebuilds"):
    LAYER_MAP[_name] = [("service.patch_tail_s", ("service_mixed",))]


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document this catalogue defines."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 20,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
