"""Span recording around the program's public functions (traced runs only).

A traced run replaces selected functions and methods of ``repro`` with
wrappers that record one span per call: layer, start, end, thread, the
sequence number of the event the call handles (``-1`` when it has none yet)
and the enclosing span on the same thread.  Spans stay in memory and are
summarised at the end into self time (span minus the spans it encloses)
and call counts.  Untraced runs install no wrappers, so end-to-end figures
carry no tracing cost.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable

_clock = time.perf_counter_ns


class SpanRecorder:
    """Installs span wrappers, keeps their spans and undoes the patches."""

    def __init__(self) -> None:
        #: (span id, layer, start ns, end ns, thread id, seq, parent span id)
        self.spans: list[tuple[int, str, int, int, int, int, int]] = []
        #: counters the wrappers add up at the same boundaries (bytes, frames,
        #: matches in/out); maxima are kept in :attr:`peaks`.
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        layer: str,
        after: Callable[[tuple, Any], None] | None = None,
    ) -> Callable:
        """A wrapper recording a ``layer`` span around every call of ``fn``.

        ``after(args, result)`` runs once the call returns, still inside the
        span's thread, to feed :attr:`counts` and :attr:`peaks`.
        """
        spans = self.spans
        ids = self._ids
        local = self._local
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = [0]
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                seq = -1
                if len(args) > 1:
                    seq = getattr(args[1], "seq", -1)
                    if not isinstance(seq, int):
                        seq = -1
                spans.append((span_id, layer, start, end, get_ident(), seq, parent))
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch_method(self, cls: type, name: str, layer: str, after=None) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, self.wrap(original, layer, after))
        self._undo.append(lambda: setattr(cls, name, original))

    def patch_function(self, fn: Callable, layer: str, after=None) -> None:
        """Rebind ``fn`` in every loaded ``repro`` module that imported it."""
        traced = self.wrap(fn, layer, after)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, traced)
                    self._undo.append(
                        lambda m=module, a=attr: setattr(m, a, fn)
                    )

    def patch_module_attr(self, module, name: str, layer: str, after=None) -> None:
        """Rebind ``module.name`` only (the same function serves two layers)."""
        original = getattr(module, name)
        setattr(module, name, self.wrap(original, layer, after))
        self._undo.append(lambda: setattr(module, name, original))

    def unpatch(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- summary -------------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: ``self_s`` (span minus enclosed spans), ``total_s``, ``calls``."""
        layer_of = {}
        duration = {}
        for span_id, layer, start, end, _tid, _seq, _parent in self.spans:
            layer_of[span_id] = layer
            duration[span_id] = end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0}
        )
        for span_id, layer, _start, _end, _tid, _seq, parent in self.spans:
            row = out[layer]
            row["self_s"] += duration[span_id] / 1e9
            row["total_s"] += duration[span_id] / 1e9
            row["calls"] += 1
            if parent in layer_of:
                out[layer_of[parent]]["self_s"] -= duration[span_id] / 1e9
        return dict(out)


def install_engine_layers(recorder: SpanRecorder) -> None:
    """Spans on the engine, language and runtime layers every workload shares."""
    from repro.engine import compiler
    from repro.engine.matcher import PatternMatcher
    from repro.events.schema import SchemaRegistry
    from repro.events.time import PreassignedSequencer, SequenceAssigner
    from repro.language.parser import parse_query
    from repro.language.semantics import analyze
    from repro.ranking.ranker import Ranker
    from repro.runtime.engine import CEPREngine
    from repro.runtime.query import RegisteredQuery
    from repro.runtime.router import EventRouter

    counts = recorder.counts

    def count_ranker(args, result) -> None:
        counts["ranker.matches_in"] += len(args[2])
        counts["ranker.emissions_out"] += len(result)

    def count_route(args, result) -> None:
        counts["router.pairs_routed"] += len(result)

    recorder.patch_method(SchemaRegistry, "validate", "events.validate")
    recorder.patch_method(SequenceAssigner, "assign", "events.sequence")
    recorder.patch_method(PreassignedSequencer, "assign", "events.sequence")
    recorder.patch_method(CEPREngine, "push", "runtime.engine")
    recorder.patch_method(CEPREngine, "push_batch", "runtime.engine")
    recorder.patch_method(EventRouter, "route", "router.route", count_route)
    recorder.patch_method(RegisteredQuery, "process", "query.process")
    recorder.patch_method(PatternMatcher, "process", "matcher.process")
    recorder.patch_method(Ranker, "observe", "ranker.observe", count_ranker)
    recorder.patch_function(parse_query, "language.parse")
    recorder.patch_function(analyze, "language.analyze")
    recorder.patch_function(compiler.compile_automaton, "engine.compile")
    recorder.patch_function(compiler.compile_edges, "engine.compile")
