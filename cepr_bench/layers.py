"""Names and units of the metrics, and the per-layer values every workload shares.

Per-layer times are self time in seconds per traced replay (see the README
for each workload's traced replay); counts are per traced replay.  Every
traced run prints every per-layer name, with zero where the workload leaves
the layer idle.
"""

#: End-to-end metrics (untraced runs), printed for every workload.
END_TO_END = {
    "throughput_eps": "1/s",
    "cpu_us_per_event": "us",
    "setup_s": "s",
    "peak_heap_mb": "MB",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced runs), printed for every workload.
PER_LAYER = {
    "events.validate_s": "s",
    "events.sequence_s": "s",
    "runtime.engine.self_s": "s",
    "router.route_s": "s",
    "router.pairs_routed": "count",
    "router.pairs_gated": "count",
    "router.gate_ratio": "ratio",
    "router.predicate_evals_performed": "count",
    "router.predicate_evals_saved": "count",
    "router.memo_hit_ratio": "ratio",
    "matcher.process_s": "s",
    "matcher.calls": "count",
    "matcher.runs_created": "count",
    "matcher.runs_pruned": "count",
    "matcher.prune_ratio": "ratio",
    "matcher.match_yield": "ratio",
    "matcher.peak_live_runs": "count",
    "ranker.observe_s": "s",
    "ranker.matches_in": "count",
    "ranker.emissions_out": "count",
    "query.process_self_s": "s",
    "query.fanout_s": "s",
    "language.parse_s": "s",
    "language.analyze_s": "s",
    "engine.compile_s": "s",
    "process.spawn_s": "s",
    "process.submit_s": "s",
    "process.barrier_s": "s",
    "process.encode_s": "s",
    "process.decode_s": "s",
    "process.frames_out": "count",
    "process.bytes_out": "bytes",
    "process.parent_cpu_us_per_event": "us",
    "process.worker_cpu_us_per_event": "us",
    "concurrent.submit_s": "s",
    "concurrent.backlog_peak": "count",
    "serve.decode_s": "s",
    "serve.encode_s": "s",
    "serve.fanout_s": "s",
    "serve.frames_in": "count",
    "serve.frames_out": "count",
    "serve.bytes_in": "bytes",
    "serve.bytes_out": "bytes",
    "serve.outbox_peak": "count",
    "loadgen.late_p99_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def engine_layers(summary: dict, counts: dict, reps: int = 1) -> dict[str, float]:
    """Per-layer values shared by every workload, averaged over ``reps``."""

    def self_s(layer: str) -> float:
        return summary.get(layer, {}).get("self_s", 0.0) / reps

    return {
        "events.validate_s": self_s("events.validate"),
        "events.sequence_s": self_s("events.sequence"),
        "runtime.engine.self_s": self_s("runtime.engine"),
        "router.route_s": self_s("router.route"),
        "router.pairs_routed": counts.get("router.pairs_routed", 0) / reps,
        "matcher.process_s": self_s("matcher.process"),
        "matcher.calls": summary.get("matcher.process", {}).get("calls", 0) / reps,
        "ranker.observe_s": self_s("ranker.observe"),
        "ranker.matches_in": counts.get("ranker.matches_in", 0) / reps,
        "ranker.emissions_out": counts.get("ranker.emissions_out", 0) / reps,
        "query.process_self_s": self_s("query.process"),
        "query.fanout_s": self_s("query.fanout"),
        "language.parse_s": self_s("language.parse"),
        "language.analyze_s": self_s("language.analyze"),
        "engine.compile_s": self_s("engine.compile"),
    }


def engine_counters(stats_by_query: dict, shared: dict) -> dict[str, float]:
    """Matcher and router counters read from the program's own statistics."""
    created = sum(row["runs_created"] for row in stats_by_query.values())
    pruned = sum(row["runs_pruned"] for row in stats_by_query.values())
    matches = sum(row["matches"] for row in stats_by_query.values())
    routed = sum(row["events_routed"] for row in stats_by_query.values())
    gated = shared.get("events_gated", 0)
    performed = shared.get("predicate_evals_performed", 0)
    saved = shared.get("predicate_evals_saved", 0)
    return {
        "matcher.runs_created": created,
        "matcher.runs_pruned": pruned,
        "matcher.prune_ratio": pruned / created if created else 0.0,
        "matcher.match_yield": matches / created if created else 0.0,
        "matcher.peak_live_runs": sum(
            row["peak_live_runs"] for row in stats_by_query.values()
        ),
        "router.pairs_gated": gated,
        "router.gate_ratio": gated / routed if routed else 0.0,
        "router.predicate_evals_performed": performed,
        "router.predicate_evals_saved": saved,
        "router.memo_hit_ratio": saved / (saved + performed) if saved + performed else 0.0,
    }
