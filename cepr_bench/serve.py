"""``serve-stock``: CEPRServer in its own process, driven over TCP loopback.

The generator in this process uses one publisher and one subscriber
connection and two threads (the main thread publishes, one thread reads
emission frames).  Publishing is open loop: batches are due every
``BATCH_INTERVAL`` seconds whatever the server does, each emission's latency
is taken from when its triggering event was due to when its frame arrived,
and the generator records how late it sent every batch.
"""

from __future__ import annotations

import json
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

from cepr_bench.common import (
    Collector,
    Stream,
    TOP5_QUERY,
    clean_heap,
    compare,
    engine_reference,
    HostSpeed,
    median,
    mtr_mismatches,
    now,
    percentile,
)
from cepr_bench.layers import engine_counters, engine_layers
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ConnectionClosed,
    encode_frame,
    read_frame_blocking,
)

HOST_SCRIPT = Path(__file__).with_name("serve_host.py")
QUERY = "top5"
QUERIES = {QUERY: TOP5_QUERY}

#: Open-loop cadence: one push_batch frame is due every 10 ms.
BATCH_INTERVAL = 0.01
#: Fixed offered rate of the latency phase, well below the server's capacity.
LATENCY_RATE = 2000
#: The generator has fallen behind (the run is invalid) when its p90
#: lateness against the schedule exceeds this many seconds.
LATE_LIMIT = 0.02
#: Closed-loop throughput probes: events per probe and per push_batch frame.
PROBE_EVENTS = 4000
PROBE_BATCH = 200
MIN_PROBES = 3
#: Events fed at ``LATENCY_RATE`` to the server that measures its heap peak.
HEAP_EVENTS = 4000
#: Set-up-only server starts; with the latency and throughput servers,
#: set-up time is a median over this many plus two starts.
SETUP_ONLY_STARTS = 3
_UNCAPPED = 2**31 - 1


class Wire:
    """One client connection that counts the frames it moves."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.frames_out = self.frames_in = 0
        self._next_id = 0
        self.request({"op": "hello", "version": PROTOCOL_VERSION})

    def send(self, frame: dict) -> None:
        self.sock.sendall(encode_frame(frame, _UNCAPPED))
        self.frames_out += 1

    def recv(self) -> dict:
        frame = read_frame_blocking(self.sock, _UNCAPPED)
        self.frames_in += 1
        return frame

    def request(self, frame: dict) -> dict:
        self._next_id += 1
        frame["id"] = self._next_id
        self.send(frame)
        while True:
            reply = self.recv()
            if reply.get("op") == "error":
                raise RuntimeError(f"server error: {reply}")
            if reply.get("op") == "ack" and reply.get("id") == self._next_id:
                return reply

    def read_until_closed(self) -> None:
        try:
            while self.recv().get("op") != "bye":
                pass
        except (ConnectionClosed, OSError):
            pass
        self.sock.close()


class Server:
    """One ``serve_host.py`` process plus the generator's two connections.

    Use as a context manager: leaving the block kills a server that
    :meth:`stop` did not drain, and waits for it.
    """

    def __init__(self, stream: Stream, trace: bool = False, heap: bool = False,
                 perturb: bool = False) -> None:
        self.stream = stream
        self.collector = Collector(stream.position, perturb=perturb)
        self.arrivals: list[tuple[float, dict]] = []
        self.pushed = 0
        clean_heap()
        started = now()
        self.proc = subprocess.Popen(
            [sys.executable, str(HOST_SCRIPT), "--trace", str(int(trace)),
             "--tracemalloc", str(int(heap))],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            port = self._read_ready()
            self.pub = Wire(port)
            #: process start until HELLO is acknowledged.
            self.setup_s = now() - started
            self.sub = Wire(port)
            self.sub.request({"op": "subscribe", "query": QUERY})
        except BaseException:
            self.__exit__()
            raise
        self._reader = threading.Thread(target=self._read_emissions, daemon=True)
        self._reader.start()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.communicate()

    def _read_ready(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("READY "):
            raise RuntimeError(f"server did not start: {line!r}")
        return int(line.split()[1])

    def _read_emissions(self) -> None:
        try:
            while True:
                frame = self.sub.recv()
                if frame.get("op") == "emission":
                    self.arrivals.append((now(), frame["emission"]))
                elif frame.get("op") == "bye":
                    return
        except (ConnectionClosed, OSError):
            return

    # -- publishing ----------------------------------------------------------------

    def push_closed(self, docs: list[dict]) -> float:
        """Push back to back, then sync; returns the wall time."""
        started = now()
        for i in range(0, len(docs), PROBE_BATCH):
            self.pub.request({"op": "push_batch", "events": docs[i : i + PROBE_BATCH]})
        self.pub.request({"op": "sync"})
        self.pushed += len(docs)
        return now() - started

    def push_paced(self, docs: list[dict], rate: float) -> "Phase":
        """Open-loop push of ``docs`` at ``rate`` events per second."""
        per_batch = max(1, round(rate * BATCH_INTERVAL))
        phase = Phase(self.pushed, len(docs), per_batch)
        begin = now() + 0.02
        for j, i in enumerate(range(0, len(docs), per_batch)):
            due = begin + j * per_batch / rate
            delay = due - now()
            if delay > 0:
                time.sleep(delay)
            phase.due.append(due)
            phase.late.append(max(0.0, now() - due))
            self.pub.request({"op": "push_batch", "events": docs[i : i + per_batch]})
        self.pub.request({"op": "sync"})
        self.pushed += len(docs)
        return phase

    def latencies(self, phase: "Phase") -> list[float]:
        """Due-to-arrival seconds of the emissions ``phase`` triggered."""
        out = []
        position = self.stream.position
        for arrived, doc in list(self.arrivals):
            index = position[doc["at_ts"]] - phase.start
            if 0 <= index < phase.count and doc["kind"] == "window_close":
                out.append(arrived - phase.due[index // phase.per_batch])
        return out

    # -- shutdown and checks ------------------------------------------------------

    def stop(self) -> tuple[dict, list[str]]:
        """Cross-check counters, drain the server, check its output."""
        problems = []
        ingested = self.pub.request({"op": "sync"})["events_ingested"]
        if ingested != self.pushed:
            problems.append(f"server ingested {ingested} events, {self.pushed} pushed")
        stats = self.pub.request({"op": "stats"})["metrics"]["metrics"]
        counters = {
            (m["name"], m["labels"].get("query")): m["value"] for m in stats
        }
        if counters.get(("events_pushed_total", None)) != self.pushed:
            problems.append("STATS events_pushed_total disagrees with events pushed")
        emitted = counters.get(("query_emissions_total", QUERY))
        deadline = now() + 5
        while len(self.arrivals) < emitted and now() < deadline:
            time.sleep(0.01)
        if len(self.arrivals) != emitted:
            problems.append(
                f"STATS counts {emitted} emissions, subscriber got {len(self.arrivals)}"
            )
        self.proc.send_signal(signal.SIGTERM)
        self.pub.read_until_closed()
        self._reader.join(timeout=60)
        self.sub.sock.close()
        out, err = self.proc.communicate(timeout=60)
        if self.proc.returncode != 0 or not out.strip():
            raise RuntimeError(f"server exited with {self.proc.returncode}: {err[-2000:]}")
        report = json.loads(out.strip().splitlines()[-1])
        report["stats"] = counters
        frames_in = self.pub.frames_in + self.sub.frames_in
        frames_out = self.pub.frames_out + self.sub.frames_out
        if report["frames_sent"] != frames_in:
            problems.append(f"server sent {report['frames_sent']} frames, {frames_in} read")
        if report["frames_received"] != frames_out:
            problems.append(
                f"server received {report['frames_received']} frames, {frames_out} sent"
            )
        if report["emissions_fanned_out"] != len(self.arrivals) or report["emissions_dropped"]:
            problems.append("server fan-out count disagrees with emission frames read")
        self.collector.emissions[QUERY] = [doc for _, doc in self.arrivals]
        want = engine_reference(self.stream, QUERIES, self.pushed)
        problems += compare(self.collector.fingerprints(), want)
        return report, problems


class Phase:
    """Schedule bookkeeping of one open-loop phase."""

    def __init__(self, start: int, count: int, per_batch: int) -> None:
        self.start = start
        self.count = count
        self.per_batch = per_batch
        self.due: list[float] = []
        self.late: list[float] = []

    def late_p99(self) -> float:
        return percentile(self.late, 99)


def run(seed: int, seconds: float, trace: bool, perturb: bool) -> dict:
    """Run the workload; returns metrics, attempted count and problems."""
    latency_events = int(LATENCY_RATE * max(1.0, seconds / 2))
    stream = Stream(seed, latency_events)
    if trace:
        return _run_traced(stream, latency_events, perturb)
    problems: list[str] = []
    attempted = failed = 0

    setups = []
    for _ in range(SETUP_ONLY_STARTS):
        with Server(stream) as server:
            setups.append(server.setup_s)
            problems += server.stop()[1]

    # Fixed-rate open-loop phase: emission latency, CPU per event, peak RSS.
    # Not scaled by host speed: these figures are set by the schedule and
    # the server process, which the calibration here does not track.
    with Server(stream, perturb=perturb) as server:
        setups.append(server.setup_s)
        phase = server.push_paced(stream.docs(0, latency_events), LATENCY_RATE)
        time.sleep(0.05)
        latencies = server.latencies(phase)
        report, found = server.stop()
    problems += found
    attempted += latency_events
    late_p90 = percentile(phase.late, 90)
    if late_p90 > LATE_LIMIT:
        print(f"info generator fell behind: p90 lateness {late_p90 * 1e3:.1f} ms")
        failed += latency_events

    # Closed-loop throughput: back-to-back probes after an untimed one, each
    # scaled by the host speed around it.
    with Server(stream) as server:
        setups.append(server.setup_s)
        server.push_closed(stream.docs(0, PROBE_EVENTS))
        probes, raw_probes, factors = [], [], []
        deadline = now() + seconds / 2
        while now() < deadline or len(probes) < MIN_PROBES:
            start = server.pushed
            docs = stream.docs(start, start + PROBE_EVENTS)
            with HostSpeed() as host:
                wall = server.push_closed(docs)
            probes.append(PROBE_EVENTS / (wall * host.factor))
            raw_probes.append(PROBE_EVENTS / wall)
            factors.append(host.factor)
        problems += server.stop()[1]
        attempted += server.pushed

    # tracemalloc peak of a server fed an untimed fixed-rate prefix.
    with Server(stream, heap=True) as server:
        server.push_paced(stream.docs(0, HEAP_EVENTS), LATENCY_RATE)
        report_heap, found = server.stop()
    problems += found
    attempted += HEAP_EVENTS

    reference = engine_reference(stream, QUERIES, latency_events)
    problems += mtr_mismatches(stream, QUERIES, reference, latency_events)
    metrics = {
        "throughput_eps": median(probes),
        "cpu_us_per_event": report["cpu_s"] / latency_events * 1e6,
        "setup_s": median(setups),
        "peak_heap_mb": report_heap["heap_peak_mb"],
        "peak_rss_mb": report["rss_peak_mb"],
    }
    info = {
        "emit_p50_ms": percentile(latencies, 50) * 1e3,
        "emit_p90_ms": percentile(latencies, 90) * 1e3,
        "emit_p99_ms": percentile(latencies, 99) * 1e3,
        "emit_samples": len(latencies),
        "late_p90_ms": late_p90 * 1e3,
        "late_p99_ms": phase.late_p99() * 1e3,
        "raw_throughput_eps": median(raw_probes),
        "host_factor": median(factors),
        "probes": len(probes),
    }
    return {"metrics": metrics, "info": info, "attempted": attempted, "failed": failed,
            "problems": problems}


def _run_traced(stream: Stream, latency_events: int, perturb: bool) -> dict:
    """An untraced and a traced server, each fed a closed-loop replay then a
    fixed-rate phase; spans come from the traced one."""
    problems: list[str] = []
    walls = {}
    reports = {}
    attempted = 0
    for traced in (False, True):
        with Server(stream, trace=traced, perturb=perturb and traced) as server:
            walls[traced] = server.push_closed(stream.docs(0, PROBE_EVENTS))
            phase = server.push_paced(
                stream.docs(PROBE_EVENTS, PROBE_EVENTS + latency_events), LATENCY_RATE
            )
            reports[traced], found = server.stop()
        problems += found
        attempted += PROBE_EVENTS + latency_events
    report = reports[True]
    layers, counts = report["layers"], report["counts"]

    def self_s(layer: str) -> float:
        return layers.get(layer, {}).get("self_s", 0.0)

    values = engine_layers(layers, counts)
    stats = report["stats"]
    row = {
        key: stats.get((metric, QUERY), 0)
        for key, metric in (
            ("runs_created", "runs_created_total"),
            ("runs_pruned", "runs_pruned_total"),
            ("matches", "query_matches_total"),
            ("peak_live_runs", "peak_live_runs"),
            ("events_routed", "query_events_routed_total"),
        )
    }
    shared = {
        key: stats.get((key + "_total", None), 0)
        for key in ("events_gated", "predicate_evals_performed", "predicate_evals_saved")
    }
    values.update(engine_counters({QUERY: row}, shared))
    values.update(
        {
            "concurrent.submit_s": self_s("concurrent.submit"),
            "concurrent.backlog_peak": report["peaks"].get("concurrent.backlog_peak", 0),
            "serve.decode_s": self_s("serve.decode"),
            "serve.encode_s": self_s("serve.encode"),
            "serve.fanout_s": self_s("serve.fanout"),
            "serve.frames_in": counts.get("serve.frames_in", 0),
            "serve.frames_out": counts.get("serve.frames_out", 0),
            "serve.bytes_in": counts.get("serve.bytes_in", 0),
            "serve.bytes_out": counts.get("serve.bytes_out", 0),
            "serve.outbox_peak": report["outbox_peak"],
            "loadgen.late_p99_ms": phase.late_p99() * 1e3,
            "trace.overhead_ratio": walls[True] / walls[False],
        }
    )
    return {"layers": values, "info": {}, "attempted": attempted, "problems": problems}

