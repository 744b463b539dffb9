"""HTTP serving front-end: estimate requests in, JSON estimates out.

Two layers, separable for testing:

* :class:`EstimationService` — the transport-free core: one SQL
  request pipeline (fingerprint → estimate cache → parse cache → fused
  execute) behind ``estimate`` / ``estimate_many_sql`` / ``feedback``.
  It owns the :class:`~repro.serve.batcher.MicroBatcher`, the three
  caches of :mod:`repro.serve.cache`, the fused
  compile→encode→predict path (:mod:`repro.serve.fused`, when the
  estimator is eligible), and the admission-control counter.
* :class:`EstimationServer` — a ``ThreadingHTTPServer`` wrapping one
  service in a small JSON API:

  ==========================  ==================================================
  ``GET  /healthz``           liveness probe, ``{"status": "ok"}``
  ``GET  /metrics``           the byte-stable runtime-metrics snapshot (JSON)
  ``GET  /metrics.prom``      Prometheus text exposition (also
                              ``/metrics?format=prometheus``): counters,
                              histograms, windowed summaries, SLO burn rates
  ``POST /v1/estimate``       ``{"sql": "..."}`` → ``{"estimate": c, "cached": b}``
  ``POST /v1/estimate_batch`` ``{"sql": [...]}`` → ``{"estimates": [...]}``
  ``POST /v1/feedback``       ``{"sql": "...", "true_cardinality": t}`` →
                              ``{"qerror": q, "estimate": c}``
  ==========================  ==================================================

Accuracy-aware telemetry (``repro.obs`` v2): every ``/v1/estimate*``
request emits one wide event into the process event log (fingerprint,
trace id, batch id, model version, cache outcome, latency, estimate),
request latency feeds the windowed ``serve.request.seconds.window``
monitor and the ``serve.latency.slo`` tracker, and ``/v1/feedback``
closes the accuracy loop: the observed true cardinality becomes a
q-error observation in the per-model/table/QFT
``serve.qerror.window``, the ``serve.qerror.slo`` burn rate, the
service's :class:`~repro.feedback.QueryFeedbackMonitor`, and the
worst-q-error exemplar reservoir (which keeps the offending SQL).
Requests carrying an ``X-Repro-Trace`` header adopt the client's trace
id — every span the request opens is stamped with it, so client and
server span logs stitch into one Chrome trace.

Connections are **keep-alive** (HTTP/1.1 + ``Content-Length``): a
client that reuses its socket pays one round-trip per request instead
of a TCP handshake plus a handler-thread spawn.  Each live connection
registers itself with the server so shutdown stays graceful without an
idle-timeout wait: ``stop()`` flips a draining flag (handler loops bow
out between requests) and half-closes every connection's *read* side —
blocked keep-alive readers see EOF immediately while in-flight
responses still go out on the untouched write side.

Backpressure: when more than ``max_inflight`` requests are already in
flight the service refuses new work and the server answers ``503`` with
a ``Retry-After`` header — bounded queues instead of unbounded latency.
Shutdown is graceful: the listener stops accepting, in-flight handler
threads are joined, and the batcher drains everything it already
accepted before the process lets go (no accepted request is dropped).
"""

from __future__ import annotations

import threading
import urllib.parse
from typing import Sequence

from repro import obs
from repro.estimators.base import CardinalityEstimator
from repro.featurize.base import Featurizer, LosslessnessError
from repro.feedback import QueryFeedbackMonitor
from repro.metrics import qerror
from repro.obs.prometheus import CONTENT_TYPE, render_prometheus
from repro.serve.batcher import BatcherClosedError, MicroBatcher
from repro.serve.cache import EstimateCache, ParseCache, PlanCache
from repro.serve.fused import FusedEstimatePath, PlannedStatement
from repro.serve.http import JsonRequestHandler, ThreadedJsonServer
from repro.sql.ast import Query, UnsupportedQueryError
from repro.sql.parser import (
    SqlSyntaxError,
    bind_template,
    fingerprint_sql,
    make_template,
    parse_query,
)

__all__ = ["EstimationService", "EstimationServer",
           "ServiceUnavailableError"]

#: Seconds a rejected client should wait before retrying (503 header).
_RETRY_AFTER_SECONDS = 1


class ServiceUnavailableError(RuntimeError):
    """The service is saturated (or closed) and refused the request."""

    def __init__(self, message: str,
                 retry_after: int = _RETRY_AFTER_SECONDS) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class _RequestTelemetry:
    """Collects one request's wide-event fields and emits on exit.

    Opened around the whole request (admission included, so rejections
    are captured too); the body fills in ``fingerprint`` / ``cache`` /
    ``batch_id`` / ``estimate`` as they become known.  On exit — normal
    or exceptional — the latency stopwatch stops and the service
    records the event, the windowed latency observation, the latency
    SLO sample, and the logical-tick bump.
    """

    __slots__ = ("_service", "sql", "trace_id", "fingerprint", "cache",
                 "batch_id", "estimate", "watch")

    def __init__(self, service: "EstimationService", sql: str | None,
                 trace_id: int | None) -> None:
        self._service = service
        self.sql = sql
        self.trace_id = trace_id
        self.fingerprint: str | None = None
        self.cache: str | None = None
        self.batch_id: int | None = None
        self.estimate: float | None = None
        self.watch = obs.get_event_log().stopwatch()

    def __enter__(self) -> "_RequestTelemetry":
        self.watch.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.watch.__exit__(exc_type, exc, tb)
        error = exc_type.__name__ if exc_type is not None else None
        self._service._record_request(self, error)
        return False


class _Statement:
    """A cached prepared statement.

    Holds the re-bindable AST template plus, when the fused path could
    shape-compile it, its :class:`~repro.serve.fused.PlannedStatement`
    for the SQL-direct planned leg.  These are the values the
    fingerprint-keyed :class:`~repro.serve.cache.ParseCache` stores.
    """

    __slots__ = ("template", "planned")

    def __init__(self, template: Query,
                 planned: PlannedStatement | None) -> None:
        self.template = template
        self.planned = planned


class EstimationService:
    """SQL in, estimates out: one request pipeline with admission control.

    Every entry point — :meth:`estimate` (one statement, through the
    micro-batcher), :meth:`estimate_many_sql` (a client batch) and the
    re-estimate in :meth:`feedback` — runs the same steps, each once
    per request rather than once per statement:

    1. ``fingerprint_sql`` per statement: ``(fingerprint, literals)``;
    2. one :class:`~repro.serve.cache.EstimateCache` probe on those
       pairs;
    3. prepare the misses in the request thread: one parse-cache probe
       (a seen fingerprint yields its planned statement — SQL-direct
       leg, no AST — or re-binds its cached template, a first-seen
       statement is parsed), then the fused path validates them and
       resolves their plans with one plan-cache probe.  A bad
       statement fails here, alone;
    4. execute every miss of the request in one call — the fused
       path's ``estimate_planned`` (or, for estimators without a fused
       path, their own ``estimate_batch``);
    5. store the misses' estimates in the estimate cache, in one call.

    Cache counters keep per-statement meaning: every statement counts
    as one hit or one miss at each rung it reaches.

    Parameters
    ----------
    estimator:
        A fitted estimator (``estimate_batch`` must be usable from the
        batcher's worker thread).
    max_batch_size / max_wait_ms:
        Micro-batching knobs, see :class:`~repro.serve.batcher.MicroBatcher`.
    cache_size:
        LRU estimate-cache capacity; ``0`` disables caching.
    max_inflight:
        Admission bound: requests beyond this many concurrently in
        flight are rejected with :class:`ServiceUnavailableError`.
    plan_cache_size:
        Shape-keyed plan-cache capacity for the fused estimate path
        (see :mod:`repro.serve.fused`); ``0`` disables plan caching.
        Ignored when the estimator is ineligible for the fused path
        (joins, global model, MSCN) — those keep their legacy
        ``estimate_batch``.
    parse_cache_size:
        Fingerprint-keyed parsed-template cache capacity (prepared-
        statement style: instances of a seen statement template skip
        the parser); ``0`` disables it and every request parses from
        scratch.
    model_version:
        Label value for per-model telemetry dimensions; defaults to the
        estimator's ``name`` (or its class name).
    tick_every:
        Auto-advance the global windowed monitors one logical tick
        every this many requests (estimates *and* feedback); ``0``
        (the default) leaves ticking to the operator / tests.
    latency_slo / qerror_slo:
        Targets for the ``serve.latency.slo`` (seconds) and
        ``serve.qerror.slo`` (ratio) trackers.
    slo_objective:
        Fraction of observations that must meet each SLO target.
    """

    def __init__(self, estimator: CardinalityEstimator,
                 max_batch_size: int = 64, max_wait_ms: float = 2.0,
                 cache_size: int = 1024, max_inflight: int = 256,
                 plan_cache_size: int = 256,
                 parse_cache_size: int = 512,
                 model_version: str | None = None, tick_every: int = 0,
                 latency_slo: float = 0.5, qerror_slo: float = 10.0,
                 slo_objective: float = 0.99) -> None:
        if max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {max_inflight}")
        if tick_every < 0:
            raise ValueError(f"tick_every must be >= 0, got {tick_every}")
        self._estimator = estimator
        self._plan_cache = PlanCache(max_size=plan_cache_size)
        self._parse_cache = ParseCache(max_size=parse_cache_size)
        self._fused = FusedEstimatePath.try_build(estimator,
                                                  self._plan_cache)
        # The execute stage: maps prepared statements (bound queries
        # when there is no fused path) to a vector of estimates.
        self._estimate_batch = (self._fused.estimate_planned
                                if self._fused is not None
                                else estimator.estimate_batch)
        self._batcher = MicroBatcher(self._estimate_batch,
                                     max_batch_size=max_batch_size,
                                     max_wait_ms=max_wait_ms)
        self._cache = EstimateCache(max_size=cache_size)
        self._max_inflight = max_inflight
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._closed = False
        # --- accuracy-aware telemetry (repro.obs v2) ------------------
        self._model_version = (model_version
                               or getattr(estimator, "name", None)
                               or type(estimator).__name__)
        featurizer = getattr(estimator, "featurizer", None)
        if isinstance(featurizer, Featurizer):
            self._table_label = featurizer.table_name
            self._qft_label = type(featurizer).__name__
        else:
            self._table_label = "-"
            self._qft_label = type(estimator).__name__
        self._tick_every = tick_every
        self._request_seq = 0
        self._monitor = QueryFeedbackMonitor()
        windows = obs.get_windows()
        self._latency_window = windows.histogram(
            "serve.request.seconds.window", label_names=("model", "cache"))
        self._qerror_window = windows.histogram(
            "serve.qerror.window", label_names=("model", "table", "qft"))
        self._latency_slo = windows.slo("serve.latency.slo",
                                        target=latency_slo,
                                        objective=slo_objective)
        self._qerror_slo = windows.slo("serve.qerror.slo",
                                       target=qerror_slo,
                                       objective=slo_objective)

    @property
    def estimator(self) -> CardinalityEstimator:
        """The estimator answering this service's requests."""
        return self._estimator

    @property
    def cache(self) -> EstimateCache:
        """The service's estimate cache (for stats and tests)."""
        return self._cache

    @property
    def batcher(self) -> MicroBatcher:
        """The service's micro-batcher (for stats and tests)."""
        return self._batcher

    @property
    def plan_cache(self) -> PlanCache:
        """The shape-keyed plan cache (for stats and tests)."""
        return self._plan_cache

    @property
    def parse_cache(self) -> ParseCache:
        """The fingerprint-keyed parse-template cache (for stats/tests)."""
        return self._parse_cache

    @property
    def fused(self) -> FusedEstimatePath | None:
        """The fused estimate path, or ``None`` when bypassed."""
        return self._fused

    @property
    def model_version(self) -> str:
        """The model-version label on this service's telemetry."""
        return self._model_version

    @property
    def feedback_monitor(self) -> QueryFeedbackMonitor:
        """The drift monitor fed by :meth:`feedback` (for stats/tests)."""
        return self._monitor

    def estimate(self, sql: str,
                 trace_id: int | None = None) -> tuple[float, bool]:
        """Estimate one SQL statement; returns ``(estimate, was_cached)``.

        A cache hit short-circuits; a miss is prepared (and so
        validated) in the calling thread, then rides the micro-batcher,
        and its estimate is cached on the way out.  Saturation raises
        :class:`ServiceUnavailableError` *before* any work is queued.
        ``trace_id`` joins the request's spans to the caller's trace.
        """
        with _RequestTelemetry(self, sql, trace_id) as telemetry:
            self._serve([sql], telemetry)
        return telemetry.estimate, telemetry.cache == "hit"

    def estimate_many_sql(self, sqls: list[str],
                          trace_id: int | None = None) -> list[float]:
        """Estimate a client-supplied batch of SQL statements.

        The batch is already amortised, so its misses skip the
        micro-batcher and execute together in the request thread;
        cache hits are honoured and misses are cached.  The results are
        bitwise-identical to ``estimator.estimate_batch`` on the parsed
        statements.
        """
        with _RequestTelemetry(self, None, trace_id) as telemetry:
            telemetry.cache = "batch"
            return self._serve(sqls, telemetry)

    def _serve(self, sqls: list[str],
               telemetry: _RequestTelemetry) -> list[float]:
        """Admit one request and run its statements through the pipeline.

        A single-statement request (``telemetry.sql`` set) rides the
        micro-batcher and reports its cache outcome on ``telemetry``.
        """
        keyed = [fingerprint_sql(sql) for sql in sqls]
        single = telemetry if telemetry.sql is not None else None
        if single is not None:
            single.fingerprint = keyed[0][0]
        with obs.use_trace_context(telemetry.trace_id
                                   or obs.current_trace_id()), \
                self._admit(1), \
                obs.span("serve.request", metric="serve.request.seconds",
                         n_queries=len(sqls)):
            registry = obs.get_registry()
            registry.counter("serve.requests_total").inc()
            registry.counter("serve.queries_total").inc(len(sqls))
            return self._estimate_keyed(sqls, keyed, single)

    def _estimate_keyed(self, sqls: list[str],
                        keyed: list[tuple[str, tuple[float, ...]]],
                        single: _RequestTelemetry | None = None
                        ) -> list[float]:
        """Cache probe, prepare, execute, cache store (steps 2-5).

        ``keyed[i]`` is ``fingerprint_sql(sqls[i])``.  Misses execute
        inline as one batch, unless ``single`` carries the telemetry of
        a one-statement request, whose miss rides the micro-batcher.
        """
        results = self._cache.lookup_many(keyed)
        positions = [i for i, cached in enumerate(results) if cached is None]
        if positions:
            items = self._prepare([sqls[i] for i in positions],
                                  [keyed[i] for i in positions])
            estimates = (self._submit(items[0], single) if single is not None
                         else self._execute(items))
            stored = [(keyed[i], float(estimate))
                      for i, estimate in zip(positions, estimates)]
            self._cache.store_many(stored)
            for position, (_, value) in zip(positions, stored):
                results[position] = value
        if single is not None:
            single.cache = "miss" if positions else "hit"
            single.estimate = results[0]
        return results

    def _prepare(self, sqls: list[str],
                 keyed: list[tuple[str, tuple[float, ...]]]) -> list:
        """Turn a request's cache misses into items of the execute stage.

        One parse-cache probe for the request: a seen statement yields
        its planned statement (SQL-direct leg, no AST) or re-binds its
        cached template; a first-seen statement is parsed once, and
        its repeats in the request re-bind its template.  Raises the
        request's 4xx errors (syntax, unsupported query, unknown
        attribute, wrong table) in the calling thread.
        """
        statements = self._parse_cache.lookup_many(
            [fingerprint for fingerprint, _ in keyed], repeats_hit=True)
        # First-seen cacheable fingerprint -> (template, its item index).
        fresh: dict[str, tuple[Query, int]] = {}
        items: list = []
        for sql, (fingerprint, literals), statement in zip(sqls, keyed,
                                                          statements):
            if statement is not None and statement.planned is not None:
                items.append((statement.planned, literals))
            elif statement is not None or fingerprint in fresh:
                template = (statement.template if statement is not None
                            else fresh[fingerprint][0])
                # Statements sharing a fingerprint differ only in literal
                # text, so the literal count always matches the template's.
                items.append(bind_template(template, literals))
            else:
                query = parse_query(sql)
                template = (make_template(query, literals)
                            if self._parse_cache.enabled else None)
                if template is not None:
                    fresh[fingerprint] = (template, len(items))
                items.append(query)
        if self._fused is not None:
            items = self._fused.prepare_many(items)
        if fresh:
            self._remember_statements(fresh, items)
        return items

    def _remember_statements(self, fresh: dict, items: list) -> None:
        """Store a request's first-seen statement templates in the parse
        cache, each with its planned form when the fused path can plan
        it (from the plan its instance was prepared with).

        Statements whose template round-trip self-check failed stay
        uncached and every instance parses from scratch.
        """
        stored = []
        for fingerprint, (template, position) in fresh.items():
            planned = (self._fused.plan_statement(template,
                                                  items[position].plan)
                       if self._fused is not None else None)
            stored.append((fingerprint, _Statement(template, planned)))
        self._parse_cache.store_many(stored)

    def _submit(self, item, telemetry: _RequestTelemetry) -> list[float]:
        """Run one prepared item through the micro-batcher.

        The request thread waits for the estimate anyway, so an item
        that finds the batcher idle executes right here.
        """
        request = self._batcher.run_if_idle(item, telemetry.trace_id)
        if request is None:
            try:
                request = self._batcher.submit_request(
                    item, trace_id=telemetry.trace_id)
            except BatcherClosedError as exc:
                raise ServiceUnavailableError(str(exc)) from exc
        estimate = request.future.result()
        telemetry.batch_id = request.batch_id
        return [estimate]

    def _execute(self, items: list) -> Sequence[float]:
        """Run prepared items inline as one batch."""
        registry = obs.get_registry()
        registry.counter("serve.batches_total").inc()
        registry.histogram("serve.batch.size").record(len(items))
        with obs.span("serve.batch.execute", n_queries=len(items),
                      metric="serve.batch.execute.seconds"):
            return self._estimate_batch(items)

    def feedback(self, sql: str, true_cardinality: float,
                 estimate: float | None = None,
                 trace_id: int | None = None) -> tuple[float, float]:
        """Report an executed query's true cardinality; returns
        ``(qerror, estimate)``.

        This closes the accuracy loop: the observed q-error (floored at
        cardinality 1, the paper's convention) feeds the per-model
        ``serve.qerror.window`` monitor, the ``serve.qerror.slo`` burn
        rate, the drift :class:`~repro.feedback.QueryFeedbackMonitor`,
        and the worst-q-error exemplar reservoir (which keeps ``sql``
        itself).  ``estimate`` is the estimate the caller was served;
        when omitted the service re-estimates the statement through the
        request pipeline inline (bypassing admission and the batcher —
        feedback must not compete with live traffic for in-flight
        slots).  A supplied estimate still requires ``sql`` to parse.
        """
        with obs.use_trace_context(trace_id or obs.current_trace_id()), \
                obs.span("serve.feedback"):
            key = fingerprint_sql(sql)
            if estimate is None:
                estimate = self._estimate_keyed([sql], [key])[0]
            elif self._parse_cache.lookup(key[0]) is None:
                parse_query(sql)
            true_floored = max(float(true_cardinality), 1.0)
            estimate_floored = max(float(estimate), 1.0)
            observed = float(qerror(true_floored, estimate_floored))
            self._monitor.record(true_cardinality, estimate)
            self._qerror_window.observe(observed, model=self._model_version,
                                        table=self._table_label,
                                        qft=self._qft_label)
            self._qerror_slo.observe(observed)
            registry = obs.get_registry()
            registry.counter("serve.feedback_total").inc()
            registry.histogram("serve.feedback.qerror").record(observed)
            obs.get_event_log().attach_qerror(key[0], observed, sql=sql)
            self._bump_tick()
            return observed, float(estimate)

    def _record_request(self, telemetry: "_RequestTelemetry",
                        error: str | None) -> None:
        """Emit one finished request's telemetry (event + windows)."""
        obs.get_event_log().record(
            trace_id=telemetry.trace_id,
            fingerprint=telemetry.fingerprint,
            sql=telemetry.sql,
            batch_id=telemetry.batch_id,
            model_version=self._model_version,
            cache=telemetry.cache,
            latency_seconds=telemetry.watch.seconds,
            estimate=telemetry.estimate,
            error=error,
        )
        cache_label = telemetry.cache or ("error" if error else "none")
        self._latency_window.observe(telemetry.watch.seconds,
                                     model=self._model_version,
                                     cache=cache_label)
        self._latency_slo.observe(telemetry.watch.seconds)
        self._bump_tick()

    def _bump_tick(self) -> None:
        """Advance the global windows every ``tick_every`` requests."""
        if not self._tick_every:
            return
        with self._inflight_lock:
            self._request_seq += 1
            advance = self._request_seq % self._tick_every == 0
        if advance:
            obs.get_windows().advance_all()

    def close(self, drain: bool = True) -> None:
        """Refuse new requests and drain (or cancel) queued ones."""
        with self._inflight_lock:
            self._closed = True
        self._batcher.close(drain=drain)

    def _admit(self, weight: int) -> "_Admission":
        registry = obs.get_registry()
        with self._inflight_lock:
            if self._closed:
                registry.counter("serve.rejected_total").inc()
                raise ServiceUnavailableError("service is shut down")
            if self._inflight + weight > self._max_inflight:
                registry.counter("serve.rejected_total").inc()
                raise ServiceUnavailableError(
                    f"service saturated ({self._inflight} requests in "
                    f"flight, limit {self._max_inflight})")
            self._inflight += weight
        return _Admission(self, weight)


class _Admission:
    """Context manager releasing an admitted request's in-flight slot."""

    __slots__ = ("_service", "_weight")

    def __init__(self, service: EstimationService, weight: int) -> None:
        self._service = service
        self._weight = weight

    def __enter__(self) -> "_Admission":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        with self._service._inflight_lock:
            self._service._inflight -= self._weight
        return False


class _RequestHandler(JsonRequestHandler):
    """Routes the JSON API onto an :class:`EstimationService`.

    Subclassed per server with the ``service`` class attribute bound;
    never instantiated directly.  Transport plumbing (keep-alive,
    drain, JSON encode/decode) comes from
    :class:`~repro.serve.http.JsonRequestHandler`.
    """

    service: EstimationService

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        """Serve ``/healthz`` and the two ``/metrics`` renderings.

        ``/metrics`` keeps its byte-stable JSON snapshot; the
        Prometheus text exposition answers on ``/metrics.prom`` and
        ``/metrics?format=prometheus`` (both render counters, gauges,
        cumulative histograms, windowed summaries, and SLO burn rates
        with labels).
        """
        parsed = urllib.parse.urlsplit(self.path)
        query = urllib.parse.parse_qs(parsed.query)
        if parsed.path == "/healthz":
            self._send_json(200, {"status": "ok"})
        elif (parsed.path == "/metrics.prom"
              or (parsed.path == "/metrics"
                  and query.get("format") == ["prometheus"])):
            body = render_prometheus()
            self._send_bytes(200, body.encode("utf-8"),
                             content_type=CONTENT_TYPE)
        elif parsed.path == "/metrics":
            body = obs.get_registry().to_json() + "\n"
            self._send_bytes(200, body.encode("utf-8"),
                             content_type="application/json")
        else:
            self._send_json(404, {"error": f"no such endpoint {self.path}"})

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        """Serve ``/v1/estimate``, ``/v1/estimate_batch``, ``/v1/feedback``.

        A request carrying an ``X-Repro-Trace`` header adopts the
        client's trace id for the duration of handling: every span the
        service opens is stamped with it, which is what lets the
        exporter stitch client and server span logs into one trace.
        """
        trace_id = obs.parse_trace_header(
            self.headers.get(obs.TRACE_HEADER))
        with obs.use_trace_context(trace_id):
            if self.path == "/v1/estimate":
                self._handle(lambda payload: self._estimate(payload,
                                                            trace_id))
            elif self.path == "/v1/estimate_batch":
                self._handle(lambda payload: self._estimate_batch(payload,
                                                                  trace_id))
            elif self.path == "/v1/feedback":
                self._handle(lambda payload: self._feedback(payload,
                                                            trace_id))
            else:
                self._send_json(404,
                                {"error": f"no such endpoint {self.path}"})

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    def _estimate(self, payload: dict, trace_id: int | None = None) -> dict:
        sql = payload.get("sql")
        if not isinstance(sql, str):
            raise ValueError('request body must carry {"sql": "<query>"}')
        estimate, cached = self.service.estimate(sql, trace_id=trace_id)
        return {"estimate": estimate, "cached": cached}

    def _estimate_batch(self, payload: dict,
                        trace_id: int | None = None) -> dict:
        sqls = payload.get("sql")
        if (not isinstance(sqls, list)
                or not all(isinstance(s, str) for s in sqls)):
            raise ValueError(
                'request body must carry {"sql": ["<query>", ...]}')
        return {"estimates": self.service.estimate_many_sql(
            sqls, trace_id=trace_id)}

    def _feedback(self, payload: dict, trace_id: int | None = None) -> dict:
        sql = payload.get("sql")
        true_cardinality = payload.get("true_cardinality")
        if not isinstance(sql, str) \
                or not isinstance(true_cardinality, (int, float)):
            raise ValueError(
                'request body must carry {"sql": "<query>", '
                '"true_cardinality": <number>}')
        estimate = payload.get("estimate")
        if estimate is not None and not isinstance(estimate, (int, float)):
            raise ValueError('"estimate" must be a number when present')
        observed, served = self.service.feedback(
            sql, float(true_cardinality),
            estimate=None if estimate is None else float(estimate),
            trace_id=trace_id)
        return {"qerror": observed, "estimate": served}

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def _handle(self, endpoint) -> None:
        try:
            payload = self._read_json()
            response = endpoint(payload)
        except ServiceUnavailableError as exc:
            obs.get_registry().counter("serve.errors_total").inc()
            self._send_json(503, {"error": str(exc)},
                            extra_headers={
                                "Retry-After": str(exc.retry_after)})
        except (ValueError, KeyError, SqlSyntaxError, UnsupportedQueryError,
                LosslessnessError) as exc:
            # KeyError is the featurizer's unknown-attribute complaint —
            # a client mistake, not a server fault.
            obs.get_registry().counter("serve.errors_total").inc()
            message = exc.args[0] if exc.args else str(exc)
            self._send_json(400, {"error": str(message)})
        except Exception as exc:  # repro: ignore[RPR103] — mapped to a 500 response
            obs.get_registry().counter("serve.errors_total").inc()
            self._send_json(500, {"error": f"internal error: {exc}"})
        else:
            self._send_json(200, response)


class EstimationServer(ThreadedJsonServer):
    """A threaded HTTP server around one :class:`EstimationService`.

    ``port=0`` binds an ephemeral port (read it back from ``port`` after
    construction) — the form every test and the in-process benchmark
    use.  ``start()`` serves in a background thread; ``stop()`` performs
    the graceful-drain sequence described in the module docs, then
    closes the service (draining the micro-batcher).
    """

    def __init__(self, service: EstimationService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        super().__init__(_RequestHandler, host=host, port=port,
                         thread_name="repro-serve-http", service=service)
        self._service = service

    @property
    def service(self) -> EstimationService:
        """The wrapped service."""
        return self._service

    def _on_stop(self, drain: bool) -> None:
        """Close the service once the listener has fully stopped."""
        self._service.close(drain=drain)
