"""Inputs, queries, output fingerprints and statistics shared by every workload.

Everything here is built from ``--seed`` by the benchmark itself; nothing is
imported from ``benchmarks/`` so that editing an experiment cannot change
what this benchmark measures.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from typing import Any, Callable, Iterable

from repro.baselines.match_then_rank import MatchThenRankQuery
from repro.events.event import Event
from repro.runtime.engine import CEPREngine
from repro.workloads.stock import StockWorkload

#: The paper's ranked query (the CEPR demo): most profitable Buy -> Sell pairs.
TOP5_QUERY = """
PATTERN SEQ(Buy b, Sell s)
WHERE b.symbol == s.symbol AND s.price > b.price
WITHIN 100 EVENTS
USING SKIP_TILL_ANY
PARTITION BY symbol
RANK BY s.price - b.price DESC
LIMIT 5
EMIT ON WINDOW CLOSE
"""

#: Stage-0 volume thresholds of the multi-query family.  Four values per
#: template, so instances of one template share gate entries and interned
#: prefix states; high enough that most events leave most queries inert.
MQ_THRESHOLDS = (970, 980, 990, 996)

#: The four stock alert templates of the multi-query workload.
MQ_TEMPLATES = (
    # profit pair opened by a large Buy
    "PATTERN SEQ(Buy b, Sell s) "
    "WHERE b.volume > {k} AND b.symbol == s.symbol AND s.price > b.price "
    "WITHIN 20 EVENTS PARTITION BY symbol "
    "RANK BY s.price - b.price DESC LIMIT {limit} EMIT ON WINDOW CLOSE",
    # large Sell followed by a cheaper Buy (rebound)
    "PATTERN SEQ(Sell a, Buy c) "
    "WHERE a.volume > {k} AND a.symbol == c.symbol AND c.price < a.price "
    "WITHIN 20 EVENTS PARTITION BY symbol "
    "RANK BY a.price - c.price DESC LIMIT {limit} EMIT ON WINDOW CLOSE",
    # two large Buys on one symbol
    "PATTERN SEQ(Buy b, Buy c) "
    "WHERE b.volume > {k} AND c.volume > {k} AND b.symbol == c.symbol "
    "WITHIN 20 EVENTS PARTITION BY symbol "
    "RANK BY c.price DESC LIMIT {limit} EMIT ON WINDOW CLOSE",
    # large Sell followed by an even larger Sell
    "PATTERN SEQ(Sell a, Sell d) "
    "WHERE a.volume > {k} AND d.volume > a.volume AND a.symbol == d.symbol "
    "WITHIN 20 EVENTS PARTITION BY symbol "
    "RANK BY d.volume DESC LIMIT {limit} EMIT ON WINDOW CLOSE",
)


def mq_queries(count: int = 64) -> dict[str, str]:
    """``count`` named instances cycling over :data:`MQ_TEMPLATES`."""
    queries = {}
    for i in range(count):
        template = MQ_TEMPLATES[i % len(MQ_TEMPLATES)]
        threshold = MQ_THRESHOLDS[(i // len(MQ_TEMPLATES)) % len(MQ_THRESHOLDS)]
        queries[f"mq{i:02d}"] = template.format(k=threshold, limit=1 + i % 3)
    return queries


# -- inputs ---------------------------------------------------------------------

RawEvent = tuple[str, float, dict[str, Any]]


class Stream:
    """A seeded stock stream kept as plain tuples, extended on demand.

    The engine stamps sequence numbers onto the events it is given, so every
    replay gets fresh :class:`Event` objects from :meth:`events`.  Timestamps
    strictly increase, which makes them a stable key for input positions.
    """

    def __init__(self, seed: int, count: int) -> None:
        self._workload = StockWorkload(seed=seed)
        self.registry = self._workload.registry()
        self.raw: list[RawEvent] = []
        self.position: dict[float, int] = {}
        self.extend_to(count)

    def extend_to(self, count: int) -> None:
        while len(self.raw) < count:
            event = self._workload.next_event()
            if event.timestamp in self.position:
                raise RuntimeError("stream timestamps are not unique")
            self.position[event.timestamp] = len(self.raw)
            self.raw.append((event.event_type, event.timestamp, dict(event.payload)))

    def __len__(self) -> int:
        return len(self.raw)

    def events(self, start: int = 0, stop: int | None = None) -> list[Event]:
        if stop is not None:
            self.extend_to(stop)
        return [Event(t, ts, **p) for t, ts, p in self.raw[start:stop]]

    def docs(self, start: int = 0, stop: int | None = None) -> list[dict]:
        """Wire documents in the shape ``event_from_json`` reads."""
        if stop is not None:
            self.extend_to(stop)
        return [{"type": t, "t": ts, **p} for t, ts, p in self.raw[start:stop]]


# -- output fingerprints ----------------------------------------------------------
#
# An emission reduces to (kind, epoch, at_ts, ranking) where each ranked match
# is (rank values, input positions of its events in pattern-variable order).

Fingerprint = tuple


def emission_fingerprint(emission, position: dict[float, int]) -> Fingerprint:
    """Fingerprint of an engine :class:`~repro.ranking.emission.Emission`."""
    return (
        emission.kind.value,
        emission.epoch,
        emission.at_ts,
        tuple(
            (
                tuple(match.rank_values),
                tuple(position[event.timestamp] for event in match.events()),
            )
            for match in emission.ranking
        ),
    )


def _binding_positions(bindings: dict, position: dict[float, int]) -> tuple:
    positions = []
    for binding in bindings.values():
        docs = binding if isinstance(binding, list) else [binding]
        positions.extend(position[doc["t"]] for doc in docs)
    return tuple(positions)


def wire_fingerprint(doc: dict, position: dict[float, int]) -> Fingerprint:
    """Fingerprint of the ``emission`` object of a serve emission frame."""
    return (
        doc["kind"],
        doc["epoch"],
        doc["at_ts"],
        tuple(
            (
                tuple(match["rank_values"]),
                _binding_positions(match["bindings"], position),
            )
            for match in doc["ranking"]
        ),
    )


def perturb_emission(emission) -> None:
    """Shift the first rank value of the first ranked match (self-test)."""
    for match in emission.ranking:
        match.rank_values = (match.rank_values[0] + 1.0, *match.rank_values[1:])
        return


def perturb_wire(doc: dict) -> None:
    """Shift the first rank value of the first ranked match in a frame."""
    for match in doc["ranking"]:
        match["rank_values"][0] += 1.0
        return


class Collector:
    """Emissions per query as delivered, fingerprinted after the timed region.

    Subscriber callbacks only append, so collecting costs the timed region
    next to nothing.  Items are engine emissions or the ``emission`` objects
    of wire frames.  ``perturb`` corrupts the first item that carries a
    ranked match; the self-test uses it to prove the output check catches a
    wrong rank value.
    """

    def __init__(self, position: dict[float, int], perturb: bool = False) -> None:
        self.position = position
        self.perturb = perturb
        self.emissions: dict[str, list] = {}

    def callback(self, name: str) -> Callable:
        return self.emissions.setdefault(name, []).append

    @property
    def count(self) -> int:
        return sum(len(items) for items in self.emissions.values())

    def fingerprints(self) -> dict[str, list[Fingerprint]]:
        out = {}
        for name, items in self.emissions.items():
            prints = []
            for item in items:
                wire = isinstance(item, dict)
                if self.perturb and (item["ranking"] if wire else item.ranking):
                    (perturb_wire if wire else perturb_emission)(item)
                    self.perturb = False
                fingerprint = wire_fingerprint if wire else emission_fingerprint
                prints.append(fingerprint(item, self.position))
            out[name] = prints
        return out


# -- references (computed outside every timed region) ---------------------------


def engine_reference(
    stream: Stream, queries: dict[str, str], count: int | None = None
) -> dict[str, list[Fingerprint]]:
    """Fingerprints from an embedded engine fed one ``push`` at a time."""
    engine = CEPREngine(registry=stream.registry)
    collector = Collector(stream.position)
    for name, text in queries.items():
        engine.register_query(text, name=name, collect_results=False)
        engine.subscribe(name, collector.callback(name))
    for event in stream.events(0, count):
        engine.push(event)
    engine.flush()
    fingerprints = collector.fingerprints()
    return {name: fingerprints.get(name, []) for name in queries}


def mtr_mismatches(
    stream: Stream,
    queries: dict[str, str],
    reference: dict[str, list[Fingerprint]],
    count: int,
) -> list[str]:
    """Per-epoch comparison of the reference with the match-then-rank top-k.

    The baseline materialises every match and sorts it at epoch close, so it
    shares no pruning or bounded top-k code with the engine.  It runs over
    the first ``count`` events (a multiple of every window span), and only
    epochs complete within them are compared.  It emits only epochs that saw
    a match; an absent epoch counts as an empty ranking.
    """
    problems = []
    events = stream.events(0, count)
    for name, text in queries.items():
        baseline = MatchThenRankQuery(text, registry=stream.registry)
        complete = count // int(baseline.analyzed.window.span)
        for event in events:
            event.seq = -1
        theirs = {
            emission.epoch: emission_fingerprint(emission, stream.position)[3]
            for emission in baseline.run(events)
        }
        ours = {fp[1]: fp[3] for fp in reference[name] if fp[0] == "window_close"}
        for epoch in range(complete):
            if theirs.get(epoch, ()) != ours.get(epoch, ()):
                problems.append(f"{name}: epoch {epoch} differs from match-then-rank")
                break
    return problems


def compare(
    got: dict[str, list[Fingerprint]], want: dict[str, list[Fingerprint]]
) -> list[str]:
    """Human-readable differences between two fingerprint sets."""
    problems = []
    for name in sorted(set(got) | set(want)):
        mine, theirs = got.get(name, []), want.get(name, [])
        if mine == theirs:
            continue
        if len(mine) != len(theirs):
            problems.append(f"{name}: {len(mine)} emissions, expected {len(theirs)}")
            continue
        index = next(i for i, (a, b) in enumerate(zip(mine, theirs)) if a != b)
        problems.append(f"{name}: emission {index} differs from the reference")
    return problems


# -- statistics and clocks -------------------------------------------------------


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def clean_heap() -> None:
    """Collect garbage so the previous repetition's objects cost nothing now."""
    gc.collect()


def now() -> float:
    return time.perf_counter()


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB.

    ``getrusage`` cannot give this for a child: a child's ``ru_maxrss``
    starts from the high-water mark of the process that spawned it, so it
    would report the benchmark's own memory.  ``VmHWM`` belongs to the
    address space the child got at ``exec``.
    """
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc status")


def cpu_self() -> float:
    """User plus system CPU seconds of this process (all threads)."""
    return time.process_time()


# -- host speed ------------------------------------------------------------------
#
# The 2-core host runs up to a third faster or slower for tens of seconds at a
# time, and CPU time moves with wall time, so the drift is the host's clock
# speed, not preemption.  Every timed sample is therefore bracketed by a fixed
# calibration kernel and scaled to the speed the kernel has at NOMINAL_SPEED.


class _Open:
    __slots__ = ("price", "index")

    def __init__(self, price: float, index: int) -> None:
        self.price = price
        self.index = index


def _calibration_input() -> list[tuple[str, int, float]]:
    rng = random.Random(2016)
    prices = [100.0] * 6
    out = []
    for _ in range(6000):
        symbol = rng.randrange(6)
        prices[symbol] *= 1.0 + rng.gauss(0.0, 0.01)
        out.append(("Buy" if rng.random() < 0.5 else "Sell", symbol, round(prices[symbol], 2)))
    return out


_CALIBRATION = _calibration_input()

#: Calibration kernel speed (events/s) that normalised figures refer to.
NOMINAL_SPEED = 400_000.0


def host_speed() -> float:
    """Events per second of a fixed pure-Python ranked pair search.

    The kernel does the kind of work the engine does (small objects,
    attribute and dict access, list filtering, a sort per window) but none of
    its code, and runs with the collector off, so neither a change to the
    program nor the size of its heap can move it.
    """
    gc.disable()
    try:
        started = time.perf_counter()
        windows: dict[int, list[_Open]] = {}
        best: list[tuple[float, int, int]] = []
        for index, (kind, symbol, price) in enumerate(_CALIBRATION):
            runs = windows.setdefault(symbol, [])
            runs[:] = [run for run in runs if index - run.index < 100]
            if kind == "Sell":
                best.extend(
                    (price - run.price, run.index, index) for run in runs if price > run.price
                )
            else:
                runs.append(_Open(price, index))
            if index % 100 == 99:
                best.sort(reverse=True)
                best = []
        return len(_CALIBRATION) / (time.perf_counter() - started)
    finally:
        gc.enable()


class HostSpeed:
    """Measures the host's speed just before and just after a timed region.

    ``factor`` is that speed over :data:`NOMINAL_SPEED`: multiply a measured
    time by it (divide a measured rate by it) to get the figure the region
    would show on the nominal host.
    """

    factor = 1.0

    def __enter__(self) -> "HostSpeed":
        self._before = host_speed()
        return self

    def __exit__(self, *exc_info) -> None:
        self.factor = (self._before + host_speed()) / 2 / NOMINAL_SPEED
