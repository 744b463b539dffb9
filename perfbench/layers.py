"""Per-layer tracing from outside the program: wrap, record, restore.

The program's own tracer (:mod:`repro.obs`) stays off.  Instead, for
the traced run, :class:`SpanRecorder` replaces the public function at
each layer boundary with a wrapper that records one span per call —
``(id, parent, name, start, end, request id, rows)`` — in memory, and
puts every original back on :meth:`SpanRecorder.restore`.

Parents come from a per-thread stack.  Spans crossing a thread are
linked explicitly: a server-side entry span hangs under the client
span of the same request (the client sends the request id as its
``X-Repro-Trace`` header, and the server adopts it as
:func:`repro.obs.current_trace_id`), and a statement's micro-batcher
span is ``submit -> future result`` in the request thread, with the
execute time of its batch (spent on the batcher's worker thread)
subtracted from its self time.  What is left is the queueing wait.

A layer's self time is its spans' durations minus the parts covered
by their children.  Busy time is the summed duration of the root
spans: client requests plus batcher executions.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro import obs

__all__ = ["Span", "SpanRecorder", "LayerStats", "aggregate", "busy_ns"]


@dataclass(frozen=True)
class Span:
    """One recorded call; ``extra_ns`` is time accounted elsewhere."""

    id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int
    request: int | None
    rows: int
    extra_ns: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass
class LayerStats:
    """Summed spans of one layer name."""

    calls: int = 0
    rows: int = 0
    total_ns: int = 0
    self_ns: int = 0


def _one(*args, **kwargs) -> int:
    return 1


def _len_arg(*args, **kwargs) -> int:
    return len(args[1])


def _rows_arg(*args, **kwargs) -> int:
    return int(args[1].shape[0])


def _targets() -> list[tuple[object, str, str, Callable[..., int]]]:
    """``(owner, attribute, span name, rows-of-call)`` per wrapped entry.

    Module-level functions are wrapped where the serving layer looks
    them up (``repro.serve.server`` imports them by name).
    """
    from repro.feedback import QueryFeedbackMonitor
    from repro.featurize.base import Featurizer
    from repro.models.compiled_forest import CompiledForest
    from repro.obs.events import EventLog
    from repro.obs.window import SloTracker, WindowedHistogram, WindowRegistry
    from repro.serve import batcher, fused, server

    service = server.EstimationService
    return [
        (service, "estimate", "serve.service.estimate", _one),
        (service, "estimate_many_sql", "serve.service.estimate_many_sql",
         _len_arg),
        (service, "estimate_many", "serve.service.estimate_many", _len_arg),
        (service, "parse", "serve.parse", _one),
        (service, "feedback", "serve.feedback", _one),
        (server, "fingerprint_sql", "sql.parser.fingerprint", _one),
        (server, "parse_query", "sql.parser.parse", _one),
        (server, "bind_template", "sql.parser.bind", _one),
        (server, "query_cache_key", "serve.cache.estimate_key", _one),
        (batcher.MicroBatcher, "_execute", "serve.batcher.execute", _len_arg),
        (fused.FusedEstimatePath, "estimate_batch", "serve.fused", _len_arg),
        (fused.FusedEstimatePath, "estimate_planned", "serve.fused.planned",
         _len_arg),
        (Featurizer, "compile_plan", "featurize.compile", _one),
        (Featurizer, "encode_with_plans", "featurize.encode", _len_arg),
        (CompiledForest, "predict", "models.predict", _rows_arg),
        (EventLog, "record", "obs", _one),
        (WindowedHistogram, "observe", "obs", _one),
        (SloTracker, "observe", "obs", _one),
        (WindowRegistry, "advance_all", "obs", _one),
        (EventLog, "attach_qerror", "obs.exemplar", _one),
        (QueryFeedbackMonitor, "record", "feedback.monitor", _one),
    ]


class _TimedFuture:
    """Stands in for a batcher request's future in the request thread.

    ``result()`` closes the statement's ``serve.batcher`` span when the
    waiting caller gets its estimate back; every other attribute
    (``set_result`` for the worker, ``cancel``, ...) is the real
    future's.
    """

    def __init__(self, inner, recorder: "SpanRecorder", start_ns: int,
                 parent: int | None, request: int | None,
                 query_id: int) -> None:
        self._inner = inner
        self._recorder = recorder
        self._start_ns = start_ns
        self._parent = parent
        self._request = request
        self._query_id = query_id

    def result(self, timeout: float | None = None):
        try:
            return self._inner.result(timeout)
        finally:
            recorder = self._recorder
            recorder.add(Span(
                next(recorder._ids), self._parent, "serve.batcher",
                self._start_ns, time.perf_counter_ns(), self._request, 1,
                recorder._batch_exec_ns.pop(self._query_id, 0)))

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


class SpanRecorder:
    """Wraps the layer boundaries and keeps their spans in memory.

    Use as ``install(services)`` ... ``restore()``; ``services`` are the
    live :class:`~repro.serve.server.EstimationService` objects whose
    captured bound methods must be re-resolved to the wrappers.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._client_spans: dict[int, int] = {}
        self._batch_exec_ns: dict[int, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def add(self, span: Span) -> None:
        self.spans.append(span)

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def client_request(self, request: int, rows: int) -> "_ClientSpan":
        """Context manager timing one client request (a root span)."""
        return _ClientSpan(self, request, rows)

    def _wrap(self, name: str, fn, rows_of: Callable[..., int]):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            request = obs.current_trace_id()
            if stack:
                parent, parent_name = stack[-1]
            else:
                parent = recorder._client_spans.get(request)
                parent_name = None
            span_id = next(recorder._ids)
            stack.append((span_id, name))
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if (name == "serve.fused"
                        and parent_name == "serve.batcher.execute"):
                    for query in args[1]:
                        recorder._batch_exec_ns[id(query)] = end - start
                recorder.add(Span(span_id, parent, name, start, end,
                                  request, rows_of(*args, **kwargs)))
        return wrapper

    def _wrap_submit(self, fn):
        recorder = self

        @functools.wraps(fn)
        def submit_request(batcher, query, *args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1][0] if stack else None
            start = time.perf_counter_ns()
            request = fn(batcher, query, *args, **kwargs)
            request.future = _TimedFuture(
                request.future, recorder, start, parent,
                obs.current_trace_id(), id(query))
            return request
        return submit_request

    # -- install / restore ----------------------------------------------

    def install(self, services=()) -> None:
        """Wrap every target; a target the program no longer has is
        listed in :attr:`missing` and skipped."""
        from repro.serve.batcher import MicroBatcher

        for owner, attribute, name, rows_of in _targets():
            self._patch(owner, attribute,
                        lambda fn: self._wrap(name, fn, rows_of))
        self._patch(MicroBatcher, "submit_request", self._wrap_submit)
        # The service and its batcher captured the fused path's bound
        # ``estimate_batch`` at construction; re-resolve those through
        # the (now wrapped) class attribute.
        for service in services:
            for holder in (service, getattr(service, "batcher", None)):
                bound = getattr(holder, "_estimate_batch", None)
                owner = getattr(bound, "__self__", None)
                if owner is None or holder is None:
                    continue
                self._patched.append((holder, "_estimate_batch", bound))
                setattr(holder, "_estimate_batch",
                        getattr(owner, bound.__func__.__name__))

    def _patch(self, owner, attribute: str, make_wrapper) -> None:
        original = vars(owner).get(attribute)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attribute}")
            return
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, make_wrapper(original))

    def restore(self) -> None:
        """Put every original back (in reverse order)."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- output ---------------------------------------------------------

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.id, "parent": span.parent, "name": span.name,
                    "start_ns": span.start_ns, "end_ns": span.end_ns,
                    "request": span.request, "rows": span.rows,
                    "extra_ns": span.extra_ns}) + "\n")


class _ClientSpan:
    __slots__ = ("_recorder", "_request", "_rows", "_id", "_start")

    def __init__(self, recorder: SpanRecorder, request: int,
                 rows: int) -> None:
        self._recorder = recorder
        self._request = request
        self._rows = rows

    def __enter__(self) -> "_ClientSpan":
        self._id = next(self._recorder._ids)
        self._recorder._client_spans[self._request] = self._id
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter_ns()
        recorder = self._recorder
        recorder._client_spans.pop(self._request, None)
        recorder.add(Span(self._id, None, "loadgen.request", self._start,
                          end, self._request, self._rows))
        return False


def aggregate(spans: list[Span]) -> dict[str, LayerStats]:
    """Per-name calls, rows, total and self time."""
    covered: dict[int, int] = defaultdict(int)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration_ns
    layers: dict[str, LayerStats] = defaultdict(LayerStats)
    for span in spans:
        stats = layers[span.name]
        stats.calls += 1
        stats.rows += span.rows
        stats.total_ns += span.duration_ns
        stats.self_ns += span.duration_ns - covered[span.id] - span.extra_ns
    return dict(layers)


def busy_ns(spans: list[Span]) -> int:
    """Summed duration of the root spans."""
    return sum(span.duration_ns for span in spans if span.parent is None)
