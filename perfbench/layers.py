"""Per-layer metrics of the traced run, named after the ``repro`` modules.

Times are span *self* times (see :mod:`tracer`) per traced pass; counts
come from the program's own ``Telemetry`` counters, switched on for the
traced passes only.  Every workload reports every name, with 0 for a
layer it does not exercise: ``pool.*`` and ``rrpool.*`` read 0 on
``select-paths``, which is the prediction the workload split relies on.
"""

from __future__ import annotations

from common import median

#: Techniques whose ``IMAlgorithm.select`` the workloads call.
TECHNIQUES = (
    "IMM", "TIMp", "SSA", "D-SSA", "CELFpp", "CELF", "StaticGreedy", "PMC",
    "PMIA", "IRIE", "LDAG", "SIMPATH", "IMRank", "EaSyIM",
)

#: name -> unit, in report order.
PER_LAYER: dict[str, str] = {
    "cli.import_s": "s",
    "datasets.load_s": "s",
    "graph.weighted_s": "s",
    **{f"algorithms.select_s.{t}": "s" for t in TECHNIQUES},
    "framework.harness_s": "s",
    "simulation.score_s": "s",
    "simulation.cascades_per_s": "1/s",
    "batched.cascades": "count",
    "rrpool.extend_s": "s",
    "rrpool.rr_sets": "count",
    "rrpool.sets_per_s": "1/s",
    "rrpool.max_cover_s": "s",
    "oracle.evaluate_s": "s",
    "oracle.sigma_evaluations": "count",
    "oracle.gain_cache_hit_ratio": "ratio",
    "snapshots.sample_s": "s",
    "paths.build_s": "s",
    "paths.rebuild_s": "s",
    "paths.gains_s": "s",
    "paths.dijkstra_s": "s",
    "paths.dijkstra_sources": "count",
    "paths.structures_rebuilt": "count",
    "pool.run_s": "s",
    "pool.chunks": "count",
    "pool.chunk_retries": "count",
    "pool.worker_restarts": "count",
    "pool.serial_downgrades": "count",
    "shm.publish_bytes": "bytes",
    "pool.transport_shm": "count",
    "pool.transport_pickle": "count",
    "serving.sigma_p50_ms": "ms",
    "serving.gain_p50_ms": "ms",
    "serving.topk_warm_p50_ms": "ms",
    "serving.miss_p50_ms": "ms",
    "serving.tail_ms": "ms",
    "serving.artifact_hit_ratio": "ratio",
    "serving.coalesce_batch_mean": "count",
    "serving.artifact_evictions": "count",
    "serving.backlog_max": "count",
    "serving.generator_lag_ms": "ms",
    "telemetry.overhead_share": "ratio",
    "check.seed_mismatches": "count",
}

#: Span name (see ``tracer.install_layer_spans``) -> metric of its self time.
SELF_TIME = {
    "framework.execute_cell": "framework.harness_s",
    "simulation.score": "simulation.score_s",
    "rrpool.extend": "rrpool.extend_s",
    "rrpool.max_cover": "rrpool.max_cover_s",
    "oracle.evaluate": "oracle.evaluate_s",
    "snapshots.sample": "snapshots.sample_s",
    "paths.build": "paths.build_s",
    "paths.rebuild": "paths.rebuild_s",
    "paths.gains": "paths.gains_s",
    "paths.dijkstra": "paths.dijkstra_s",
    "pool.run": "pool.run_s",
}

#: Program counters reported under their own names, per traced pass.
COUNTERS = (
    "batched.cascades", "rrpool.rr_sets", "oracle.sigma_evaluations",
    "paths.dijkstra_sources", "paths.structures_rebuilt", "pool.chunks",
    "pool.chunk_retries", "pool.worker_restarts", "pool.serial_downgrades",
    "shm.publish_bytes", "pool.transport_shm", "pool.transport_pickle",
)


def layer_metrics(
    spans: dict[str, dict], counters: dict[str, int], passes: int, setups: list[dict]
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric from a span summary and program counters,
    normalised to one pass; layers the run did not touch read 0."""
    passes = max(1, passes)
    values = {name: 0.0 for name in PER_LAYER}
    if setups:
        values["cli.import_s"] = median([s["import_s"] for s in setups])
        values["datasets.load_s"] = median([s["load_s"] for s in setups])
        values["graph.weighted_s"] = median([s["weighted_s"] for s in setups])
    for span, entry in spans.items():
        if span.startswith("algorithms.select_s."):
            values[span] = entry["self_s"] / passes
        elif span in SELF_TIME:
            values[SELF_TIME[span]] = entry["self_s"] / passes
    for name in COUNTERS:
        values[name] = counters.get(name, 0) / passes
    score = spans.get("simulation.score", {}).get("total_s", 0.0)
    if score:
        values["simulation.cascades_per_s"] = counters.get("mc.simulations", 0) / score
    extend = spans.get("rrpool.extend", {}).get("total_s", 0.0)
    if extend:
        values["rrpool.sets_per_s"] = counters.get("rrpool.rr_sets", 0) / extend
    lookups = counters.get("oracle.gain_cache_hits", 0) + counters.get(
        "oracle.gain_cache_misses", 0
    )
    if lookups:
        values["oracle.gain_cache_hit_ratio"] = counters["oracle.gain_cache_hits"] / lookups
    return {name: (values[name], PER_LAYER[name]) for name in PER_LAYER}
