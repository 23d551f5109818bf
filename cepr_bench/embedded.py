"""``stock-top5`` and ``mq64``: an embedded CEPREngine, closed-loop chunked replay.

Each repetition builds a fresh engine (timed as set-up), replays the whole
stream in ``CHUNK``-event ``push_batch`` calls and flushes (timed as the
replay), then checks the emissions against the reference.  The first
repetition is an untimed warm-up.  Between repetitions the stream is replayed
one ``push`` at a time to time emissions.  Peak RSS comes from a
fresh child process, so the benchmark's own memory is not counted.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

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
    mq_queries,
    mtr_mismatches,
    now,
    peak_rss_mb,
    percentile,
)
from cepr_bench.layers import engine_counters, engine_layers
from cepr_bench.spans import SpanRecorder, install_engine_layers
from repro.runtime.engine import CEPREngine

CHUNK = 256
#: Events per replay: about one second of work per repetition on a 2-core host.
EVENTS = {"stock-top5": 20000, "mq64": 8000}
#: The match-then-rank baseline has no shared execution; for 64 queries it is
#: compared on this prefix only (every epoch inside it is complete).
MTR_EVENTS = {"stock-top5": 20000, "mq64": 4000}
#: Prefix replayed under tracemalloc for ``peak_heap_mb``.
HEAP_EVENTS = 5000
MIN_TIMED_REPS = 3
#: Set-ups timed per repetition; ``setup_s`` is their median over the run.
SETUPS_PER_REP = 3


def queries_for(workload: str) -> dict[str, str]:
    return {"top5": TOP5_QUERY} if workload == "stock-top5" else mq_queries(64)


def build(stream: Stream, queries: dict[str, str], collector: Collector | None,
          wrap=None) -> CEPREngine:
    """An engine with ``queries`` registered, each subscribed to ``collector``."""
    engine = CEPREngine(registry=stream.registry)
    for name, text in queries.items():
        engine.register_query(text, name=name, collect_results=False)
        if collector is not None:
            callback = collector.callback(name)
            engine.subscribe(name, callback if wrap is None else wrap(callback))
    return engine


def replay(engine: CEPREngine, chunks: list) -> None:
    for chunk in chunks:
        engine.push_batch(chunk)
    engine.flush()


def one_rep(stream, queries, perturb=False, wrap=None, setups: int = 1):
    """Set-ups plus one replay on the last engine built.

    Returns the set-up times, the replay's wall and CPU time, each with the
    host-speed factor measured around it, the engine and its collector.
    ``wrap`` wraps each subscriber callback (traced runs).
    """
    setup_times = []
    for _ in range(setups):
        collector = Collector(stream.position, perturb=perturb)
        clean_heap()
        with HostSpeed() as host:
            started = now()
            engine = build(stream, queries, collector, wrap)
            setup_s = now() - started
        setup_times.append(setup_s * host.factor)
    events = stream.events()
    chunks = [events[i : i + CHUNK] for i in range(0, len(events), CHUNK)]
    clean_heap()
    with HostSpeed() as host:
        cpu0 = cpu_self()
        started = now()
        replay(engine, chunks)
        replay_s = now() - started
        cpu_s = cpu_self() - cpu0
    return {
        "setup_s": setup_times,
        "replay_s": replay_s,
        "cpu_s": cpu_s,
        "factor": host.factor,
        "engine": engine,
        "collector": collector,
    }


def check_counters(rep: dict, stream: Stream) -> list[str]:
    """The benchmark's own counts against the engine's counters."""
    problems = []
    engine = rep["engine"]
    if engine.events_pushed != len(stream):
        problems.append(f"engine counted {engine.events_pushed} events, {len(stream)} pushed")
    counted = sum(row["emissions"] for row in engine.stats_by_query().values())
    if counted != rep["collector"].count:
        problems.append(
            f"stats_by_query counts {counted} emissions, subscribers got {rep['collector'].count}"
        )
    return problems


def heap_peak_mb(stream: Stream, queries: dict[str, str]) -> float:
    """tracemalloc peak over one untimed build + replay of a prefix, with no
    subscriber, so no emission outlives its fan-out."""
    events = stream.events(0, HEAP_EVENTS)
    chunks = [events[i : i + CHUNK] for i in range(0, len(events), CHUNK)]
    clean_heap()
    tracemalloc.start()
    try:
        replay(build(stream, queries, None), chunks)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def latency_rep(stream: Stream, queries: dict[str, str]):
    """Replay the stream one ``push`` at a time; time each ``push`` that
    returns emissions (flush excluded), scaled to the nominal host speed."""
    collector = Collector(stream.position)
    engine = build(stream, queries, collector)
    latencies: list[float] = []
    events = stream.events()
    clean_heap()
    with HostSpeed() as host:
        for event in events:
            started = now()
            if engine.push(event):
                latencies.append(now() - started)
    engine.flush()
    return [latency * host.factor for latency in latencies], collector


def rss_child(workload: str, seed: int) -> dict:
    """Run :func:`child_main` in a fresh interpreter and read its report."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--child"],
        capture_output=True,
        text=True,
        timeout=170,
    )
    if out.returncode != 0:
        raise RuntimeError(f"child replay failed: {out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def child_main(workload: str, seed: int) -> int:
    """One chunked replay in this fresh process; print fingerprints and VmHWM."""
    stream = Stream(seed, EVENTS[workload])
    collector = Collector(stream.position)
    engine = build(stream, queries_for(workload), collector)
    events = stream.events()
    replay(engine, [events[i : i + CHUNK] for i in range(0, len(events), CHUNK)])
    print(json.dumps({"fingerprints": collector.fingerprints(), "rss_mb": peak_rss_mb()}))
    return 0


def _tuples(value):
    if isinstance(value, list):
        return tuple(_tuples(v) for v in value)
    return value


def run(workload: str, seed: int, seconds: float, trace: bool, perturb: bool) -> dict:
    queries = queries_for(workload)
    stream = Stream(seed, EVENTS[workload])
    reference = engine_reference(stream, queries)
    problems = mtr_mismatches(stream, queries, reference, MTR_EVENTS[workload])
    if trace:
        return _run_traced(stream, queries, reference, seconds, perturb, problems)
    warmup = one_rep(stream, queries, perturb=perturb)
    problems += compare(warmup["collector"].fingerprints(), reference)
    problems += check_counters(warmup, stream)
    del warmup
    # Throughput and latency repetitions alternate, so both sample the
    # host over the whole run.
    reps, latencies = [], []
    deadline = now() + seconds
    while now() < deadline or len(reps) < MIN_TIMED_REPS:
        rep = one_rep(stream, queries, setups=SETUPS_PER_REP)
        problems += compare(rep["collector"].fingerprints(), reference)
        problems += check_counters(rep, stream)
        reps.append({k: rep[k] for k in ("setup_s", "replay_s", "cpu_s", "factor")})
        del rep
        measured, collector = latency_rep(stream, queries)
        problems += compare(collector.fingerprints(), reference)
        latencies += measured
    heap_mb = heap_peak_mb(stream, queries)
    child = rss_child(workload, seed)
    got = {name: [_tuples(fp) for fp in fps] for name, fps in child["fingerprints"].items()}
    problems += compare(got, reference)
    n = len(stream)
    metrics = {
        "throughput_eps": median(n / (r["replay_s"] * r["factor"]) for r in reps),
        "cpu_us_per_event": median(r["cpu_s"] * r["factor"] / n * 1e6 for r in reps),
        "setup_s": median(t for r in reps for t in r["setup_s"]),
        "peak_heap_mb": heap_mb,
        "peak_rss_mb": child["rss_mb"],
    }
    info = {
        "timed_reps": len(reps),
        "raw_throughput_eps": median(n / r["replay_s"] for r in reps),
        "host_factor": median(r["factor"] for r in reps),
        "emit_p50_ms": percentile(latencies, 50) * 1e3,
        "emit_p90_ms": percentile(latencies, 90) * 1e3,
        "emit_p99_ms": percentile(latencies, 99) * 1e3,
        "emit_samples": len(latencies),
    }
    attempted = n * (2 * len(reps) + 2) + HEAP_EVENTS
    return {"metrics": metrics, "info": info, "attempted": attempted, "problems": problems}


def _run_traced(stream, queries, reference, seconds, perturb, problems) -> dict:
    """Alternate untraced and traced repetitions after a warm-up."""
    one_rep(stream, queries)
    untraced, traced = [], []
    recorder = SpanRecorder()
    deadline = now() + seconds
    while now() < deadline or not traced:
        rep = one_rep(stream, queries)
        untraced.append(rep["replay_s"])
        install_engine_layers(recorder)
        try:
            rep = one_rep(stream, queries, perturb=perturb and not traced,
                          wrap=lambda callback: recorder.wrap(callback, "query.fanout"))
        finally:
            recorder.unpatch()
        traced.append(rep["replay_s"])
        problems += compare(rep["collector"].fingerprints(), reference)
        problems += check_counters(rep, stream)
    engine = rep["engine"]
    values = engine_layers(recorder.summary(), recorder.counts, len(traced))
    values.update(engine_counters(engine.stats_by_query(), engine.shared_stats()))
    values["trace.overhead_ratio"] = median(traced) / median(untraced)
    attempted = len(stream) * (1 + len(untraced) + len(traced))
    return {"layers": values, "info": {"traced_reps": len(traced)}, "attempted": attempted,
            "problems": problems}
