"""``stock-top5-proc1``: the ranked query on the process runner with one shard.

Each repetition creates and starts a runner (timed as set-up: the worker
process is spawned and initialised), submits the whole stream and flushes it
(timed as the replay), reads the worker's peak RSS, closes the runner and
checks the merged emissions.  CPU per event adds this process's CPU to the
reaped worker's (``RUSAGE_CHILDREN``).  The first repetition is an untimed
warm-up.  Between repetitions a prefix is replayed with the worker idle
before each epoch-closing event, timing each emission from the ``submit``
of that event through a ``poll`` barrier to its delivery.
"""

from __future__ import annotations

import resource
import tracemalloc

from cepr_bench.common import (
    Collector,
    Stream,
    TOP5_QUERY,
    clean_heap,
    compare,
    cpu_self,
    engine_reference,
    HostSpeed,
    median,
    mtr_mismatches,
    now,
    peak_rss_mb,
    percentile,
)
from cepr_bench.layers import engine_layers
from cepr_bench.spans import SpanRecorder, install_engine_layers
from repro.runtime import RunnerConfig, create_runner

QUERIES = {"top5": TOP5_QUERY}
EVENTS = 20000
LATENCY_EVENTS = 5000
HEAP_EVENTS = 5000
#: Tumbling epoch length of the query (WITHIN 100 EVENTS).
EPOCH = 100
MIN_TIMED_REPS = 3


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def start_runner(stream: Stream, collector: Collector | None, wrap=None):
    runner = create_runner(
        QUERIES, RunnerConfig(backend="process", shards=1, registry=stream.registry)
    )
    if collector is not None:
        for name in QUERIES:
            callback = collector.callback(name)
            runner.subscribe(name, callback if wrap is None else wrap(callback))
    runner.start()
    return runner


def one_rep(stream: Stream, perturb: bool = False, wrap=None) -> dict:
    """Set-up, replay and close of one runner.

    Parent CPU is counted over set-up and replay only, so the host-speed
    calibration around the replay is left out; the worker's CPU is read once
    it has been reaped.  Set-up is not scaled by host speed: it is dominated
    by starting the worker interpreter, which the calibration does not track.
    """
    collector = Collector(stream.position, perturb=perturb)
    clean_heap()
    worker0 = children_cpu()
    cpu0 = cpu_self()
    started = now()
    runner = start_runner(stream, collector, wrap)
    setup_s = now() - started
    parent_cpu_s = cpu_self() - cpu0
    try:
        events = stream.events()
        clean_heap()
        with HostSpeed() as host:
            cpu0 = cpu_self()
            started = now()
            runner.submit_all(events)
            runner.flush()
            replay_s = now() - started
            parent_cpu_s += cpu_self() - cpu0
        rss_mb = peak_rss_mb(runner.worker_pids()[0])
        stats = runner.stats_by_query()
    finally:
        runner.close()
    problems = []
    routed = sum(row["events_routed"] for row in stats.values())
    if routed != len(events):
        problems.append(f"runner routed {routed} events, {len(events)} submitted")
    emitted = sum(row["emissions"] for row in stats.values())
    if emitted != collector.count:
        problems.append(f"stats_by_query counts {emitted} emissions, subscriber got {collector.count}")
    return {
        "setup_s": setup_s,
        "replay_s": replay_s,
        "factor": host.factor,
        "parent_cpu_s": parent_cpu_s,
        "worker_cpu_s": children_cpu() - worker0,
        "rss_mb": rss_mb,
        "collector": collector,
        "problems": problems,
    }


def latency_rep(stream: Stream) -> tuple[list[float], Collector]:
    """Replay a prefix; before each epoch-closing event wait for the worker
    to go idle, then time ``submit`` of that event plus the ``poll`` that
    delivers its emission."""
    collector = Collector(stream.position)
    latencies: list[float] = []
    runner = start_runner(stream, collector)
    host = HostSpeed()
    try:
        with host:
            for index, event in enumerate(stream.events(0, LATENCY_EVENTS)):
                if index and index % EPOCH == 0:
                    runner.sync()
                    clean_heap()
                    delivered = collector.count
                    started = now()
                    runner.submit(event)
                    runner.poll()
                    if collector.count > delivered:
                        latencies.append(now() - started)
                else:
                    runner.submit(event)
        runner.flush()
    finally:
        runner.close()
    return [latency * host.factor for latency in latencies], collector


def heap_peak_mb(stream: Stream) -> float:
    """tracemalloc peak of this (parent) process over one untimed replay with
    no subscriber, so no emission outlives the merge."""
    events = stream.events(0, HEAP_EVENTS)
    clean_heap()
    tracemalloc.start()
    try:
        runner = start_runner(stream, None)
        try:
            runner.submit_all(events)
            runner.flush()
        finally:
            runner.close()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def run(seed: int, seconds: float, trace: bool, perturb: bool) -> dict:
    stream = Stream(seed, EVENTS)
    reference = engine_reference(stream, QUERIES)
    problems = mtr_mismatches(stream, QUERIES, reference, EVENTS)
    if trace:
        return _run_traced(stream, reference, seconds, perturb, problems)
    latency_reference = engine_reference(stream, QUERIES, LATENCY_EVENTS)

    warmup = one_rep(stream, perturb=perturb)
    problems += warmup["problems"] + compare(warmup["collector"].fingerprints(), reference)
    reps, latencies = [], []
    deadline = now() + seconds
    while now() < deadline or len(reps) < MIN_TIMED_REPS:
        rep = one_rep(stream)
        problems += rep["problems"] + compare(rep["collector"].fingerprints(), reference)
        del rep["collector"]
        reps.append(rep)
        measured, collector = latency_rep(stream)
        problems += compare(collector.fingerprints(), latency_reference)
        latencies += measured
    n = len(stream)
    metrics = {
        "throughput_eps": median(n / (r["replay_s"] * r["factor"]) for r in reps),
        "cpu_us_per_event": median(
            (r["parent_cpu_s"] + r["worker_cpu_s"]) * r["factor"] / n * 1e6 for r in reps
        ),
        "setup_s": median(r["setup_s"] for r in reps),
        "peak_heap_mb": heap_peak_mb(stream),
        "peak_rss_mb": median(r["rss_mb"] for r in reps),
    }
    info = {
        "timed_reps": len(reps),
        "raw_throughput_eps": median(n / r["replay_s"] for r in reps),
        "host_factor": median(r["factor"] for r in reps),
        "parent_cpu_us_per_event": median(r["parent_cpu_s"] / n * 1e6 for r in reps),
        "worker_cpu_us_per_event": median(r["worker_cpu_s"] / n * 1e6 for r in reps),
        "emit_p50_ms": percentile(latencies, 50) * 1e3,
        "emit_p90_ms": percentile(latencies, 90) * 1e3,
        "emit_p99_ms": percentile(latencies, 99) * 1e3,
        "emit_samples": len(latencies),
    }
    attempted = n * (len(reps) + 1) + LATENCY_EVENTS * len(reps) + HEAP_EVENTS
    return {"metrics": metrics, "info": info, "attempted": attempted, "problems": problems}


def install_process_layers(recorder: SpanRecorder) -> None:
    """Spans on the parent side of the process runner."""
    from repro.runtime import process
    from repro.runtime.sharded import ShardedEngineRunner

    counts = recorder.counts

    def after_encode(_args, result) -> None:
        counts["process.frames_out"] += 1
        counts["process.bytes_out"] += len(result)

    recorder.patch_method(ShardedEngineRunner, "start", "process.spawn")
    recorder.patch_method(ShardedEngineRunner, "submit_all", "process.submit")
    recorder.patch_method(ShardedEngineRunner, "flush", "process.barrier")
    recorder.patch_module_attr(process, "encode_frame", "process.encode", after_encode)
    recorder.patch_module_attr(process, "encode_event", "process.encode")
    recorder.patch_module_attr(process, "decode_payload", "process.decode")


def _run_traced(stream, reference, seconds, perturb, problems) -> dict:
    """Alternate untraced and traced repetitions after a warm-up.

    Only the parent is traced; the worker's share of the work shows in
    ``process.worker_cpu_us_per_event``, taken from the untraced repetitions.
    """
    one_rep(stream)
    untraced, traced = [], []
    recorder = SpanRecorder()
    deadline = now() + seconds
    while now() < deadline or not traced:
        rep = one_rep(stream)
        problems += rep["problems"]
        untraced.append(rep)
        install_engine_layers(recorder)
        install_process_layers(recorder)
        try:
            rep = one_rep(stream, perturb=perturb and not traced,
                          wrap=lambda callback: recorder.wrap(callback, "query.fanout"))
        finally:
            recorder.unpatch()
        problems += rep["problems"] + compare(rep["collector"].fingerprints(), reference)
        traced.append(rep)
    reps = len(traced)
    summary = recorder.summary()

    def self_s(layer: str) -> float:
        return summary.get(layer, {}).get("self_s", 0.0) / reps

    n = len(stream)
    values = engine_layers(summary, recorder.counts, reps)
    values.update(
        {
            "process.spawn_s": self_s("process.spawn"),
            "process.submit_s": self_s("process.submit"),
            "process.barrier_s": self_s("process.barrier"),
            "process.encode_s": self_s("process.encode"),
            "process.decode_s": self_s("process.decode"),
            "process.frames_out": recorder.counts["process.frames_out"] / reps,
            "process.bytes_out": recorder.counts["process.bytes_out"] / reps,
            "process.parent_cpu_us_per_event": median(
                r["parent_cpu_s"] / n * 1e6 for r in untraced
            ),
            "process.worker_cpu_us_per_event": median(
                r["worker_cpu_s"] / n * 1e6 for r in untraced
            ),
            "trace.overhead_ratio": median(r["replay_s"] for r in traced)
            / median(r["replay_s"] for r in untraced),
        }
    )
    attempted = n * (1 + len(untraced) + len(traced))
    return {"layers": values, "info": {"traced_reps": reps}, "attempted": attempted,
            "problems": problems}
