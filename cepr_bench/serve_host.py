"""The server process of the ``serve-stock`` workload.

Runs ``CEPRServer`` in its default configuration (threaded runner) with the
benchmark's ranked query until SIGTERM drains it.  Prints ``READY <port>``
once it listens, and after the drain one JSON line: the server's own CPU
seconds since it became ready, its counters, and, when asked, its
``tracemalloc`` peak and the span summary of a traced run.

Usage: python3 cepr_bench/serve_host.py --trace 0|1 --tracemalloc 0|1
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
import tracemalloc

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

from cepr_bench.common import TOP5_QUERY, peak_rss_mb  # noqa: E402
from cepr_bench.spans import SpanRecorder, install_engine_layers  # noqa: E402
from repro.serve.server import CEPRServer  # noqa: E402

QUERY_NAME = "top5"


def install_serve_layers(recorder: SpanRecorder) -> None:
    """Spans on the runner queue, the wire codec and subscription fan-out."""
    from repro.runtime.concurrent import ThreadedEngineRunner
    from repro.serve import protocol, server
    from repro.serve.subscriptions import QueryFeed

    counts, peaks = recorder.counts, recorder.peaks

    def after_submit(args, _result) -> None:
        backlog = args[0].backlog
        if backlog > peaks["concurrent.backlog_peak"]:
            peaks["concurrent.backlog_peak"] = backlog

    def after_decode(args, _result) -> None:
        counts["serve.frames_in"] += 1
        counts["serve.bytes_in"] += len(args[0]) + protocol.HEADER_BYTES

    def after_encode(_args, result) -> None:
        counts["serve.frames_out"] += 1
        counts["serve.bytes_out"] += len(result)

    recorder.patch_method(ThreadedEngineRunner, "submit", "concurrent.submit", after_submit)
    recorder.patch_module_attr(protocol, "decode_payload", "serve.decode", after_decode)
    recorder.patch_module_attr(server, "encode_frame", "serve.encode", after_encode)
    recorder.patch_method(QueryFeed, "dispatch", "serve.fanout")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--tracemalloc", type=int, default=0)
    args = parser.parse_args()

    recorder = None
    if args.trace:
        recorder = SpanRecorder()
        install_engine_layers(recorder)
        install_serve_layers(recorder)
    if args.tracemalloc:
        tracemalloc.start()
    server = CEPRServer({QUERY_NAME: TOP5_QUERY})
    ready_cpu = []

    def on_ready(srv: CEPRServer) -> None:
        ready_cpu.append(time.process_time())
        print(f"READY {srv.bound_port}", flush=True)

    asyncio.run(server.serve(on_ready=on_ready))
    stats = server.stats
    report = {
        "cpu_s": time.process_time() - ready_cpu[0],
        "events_ingested": stats.events_ingested,
        "frames_received": stats.frames_received,
        "frames_sent": stats.frames_sent,
        "emissions_fanned_out": stats.emissions_fanned_out,
        "emissions_dropped": stats.emissions_dropped,
        "outbox_peak": stats.subscriber_queue_high_water,
        "rss_peak_mb": peak_rss_mb(),
        "heap_peak_mb": (
            tracemalloc.get_traced_memory()[1] / 2**20 if args.tracemalloc else None
        ),
    }
    if recorder is not None:
        recorder.unpatch()
        report["layers"] = recorder.summary()
        report["counts"] = dict(recorder.counts)
        report["peaks"] = dict(recorder.peaks)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
