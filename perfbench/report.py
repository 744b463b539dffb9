"""End-to-end and per-layer metrics of a run, and their text tables."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.metrics import qerror

from perfbench.hostspeed import HostSpeed
from perfbench.layers import LayerStats, Span, aggregate, busy_ns
from perfbench.loadgen import Phase

__all__ = ["BENCHMARK", "END_TO_END", "PER_LAYER", "PRINTED_ONLY",
           "end_to_end", "per_layer", "span_table", "format_table"]

#: The benchmark's definition: metric names and units, run length.
BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

#: End-to-end metrics reported by an untraced run, with units.
END_TO_END = {metric["name"]: metric["unit"]
              for metric in BENCHMARK["end_to_end"]}

#: Per-layer metrics reported by a traced run, with units.
PER_LAYER = {metric["name"]: metric["unit"]
             for metric in BENCHMARK["per_layer"]}

#: Printed beside the end-to-end metrics but not part of the result
#: object: the feedback figures and the error rate read 0 on some
#: workloads (no feedback, no failures), and a result metric must never
#: be 0; ``point-conj``'s p95 lies in a tail of host scheduling stalls
#: whose share of requests moved from 1% to 34% between quiet and busy
#: host periods, so no bound of at most 25% holds it; and the timings as
#: the clock read them, before scaling to the reference host speed.
PRINTED_ONLY = {
    "estimate_p95_ms": "ms",
    "feedback_p50_ms": "ms",
    "feedback_p95_ms": "ms",
    "error_rate": "ratio",
    "estimate_samples": "count",
    "feedback_samples": "count",
    "host_slowdown": "ratio",
    "raw.throughput_ops": "ops/s",
    "raw.estimate_p50_ms": "ms",
    "raw.estimate_p95_ms": "ms",
    "raw.setup_s": "s",
}

#: Server-side spans whose self time is admission and dispatch.
_SERVER_SELF = ("serve.service.estimate", "serve.service.estimate_many_sql",
                "serve.service.estimate_many", "serve.parse")


def _per(numerator: float, denominator: float) -> float:
    return float(numerator) / denominator if denominator else 0.0


def end_to_end(phase: Phase, truths: tuple[int, ...],
               estimates: tuple[float, ...], speed: HostSpeed,
               setup_s: float, setup_raw_s: float,
               peak_rss_mb: float) -> dict[str, float]:
    """Every :data:`END_TO_END` and :data:`PRINTED_ONLY` metric.

    Timings are at the reference speed of ``speed``; ``setup_s`` is
    already.  ``estimates`` are the pool's served estimates
    (bitwise-equal to the oracle's); the q-error over them (floored at
    1, as ``/v1/feedback`` floors) is fixed by the seed.
    """
    errors = qerror(np.maximum(truths, 1.0), np.maximum(estimates, 1.0))
    estimate_p50, estimate_p95 = phase.latency_percentiles(
        phase.estimate_ms, speed)
    raw_p50, raw_p95 = phase.latency_percentiles(phase.estimate_ms)
    feedback_p50, feedback_p95 = phase.latency_percentiles(
        phase.feedback_ms, speed)
    qerror_p50, qerror_p95 = (float(value) for value in
                              np.percentile(errors, [50, 95]))
    return {
        "throughput_ops": phase.throughput(speed),
        "estimate_p50_ms": estimate_p50,
        "estimate_p95_ms": estimate_p95,
        "qerror_p50": qerror_p50,
        "qerror_p95": qerror_p95,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "feedback_p50_ms": feedback_p50,
        "feedback_p95_ms": feedback_p95,
        "error_rate": _per(phase.failed, phase.attempted),
        "estimate_samples": len(phase.estimate_ms),
        "feedback_samples": len(phase.feedback_ms),
        "host_slowdown": speed.slowdown(
            phase.start_ns, phase.start_ns + int(phase.seconds * 1e9)),
        "raw.throughput_ops": phase.throughput(),
        "raw.estimate_p50_ms": raw_p50,
        "raw.estimate_p95_ms": raw_p95,
        "raw.setup_s": setup_raw_s,
    }


def _hit_ratio(before: dict, after: dict) -> float:
    hits = after["hits"] - before["hits"]
    return _per(hits, hits + after["misses"] - before["misses"])


def per_layer(spans: list[Span], untraced: Phase, traced: Phase,
              caches_before: dict, caches_after: dict, rejected: int,
              nproc: int, speed: HostSpeed) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric of a traced phase.

    ``caches_*`` map ``estimate`` / ``parse`` / ``plan`` to the
    service's cache ``stats()`` around the traced phase.  The
    generator and CPU figures come from the untraced phase; the
    tracing overhead compares both phases at the reference speed.
    """
    layers = aggregate(spans)

    def layer(name: str) -> LayerStats:
        return layers.get(name, LayerStats())

    requests = layer("loadgen.request").calls
    statements = layer("loadgen.request").rows
    fused = layer("serve.fused")
    planned = layer("serve.fused.planned")
    fused_rows = fused.rows + planned.rows
    execute = layer("serve.batcher.execute")
    compiled = layer("featurize.compile")
    predict = layer("models.predict")
    parse = layer("sql.parser.parse")
    fingerprint = layer("sql.parser.fingerprint")
    base_throughput = untraced.throughput(speed)
    return {
        "serve.http.us_per_req":
            _per(layer("loadgen.request").self_ns / 1e3, requests),
        "serve.server.self_us_per_req":
            _per(sum(layer(n).self_ns for n in _SERVER_SELF) / 1e3,
                 requests),
        "serve.server.rejected": rejected,
        "obs.us_per_req": _per(layer("obs").total_ns / 1e3, requests),
        "sql.parser.fingerprint_us_per_stmt":
            _per(fingerprint.total_ns / 1e3, statements),
        "sql.parser.fingerprint_calls_per_stmt":
            _per(fingerprint.calls, statements),
        "sql.parser.parse_calls": parse.calls,
        "sql.parser.parse_us_per_call": _per(parse.total_ns / 1e3,
                                             parse.calls),
        "sql.parser.bind_us_per_stmt":
            _per(layer("sql.parser.bind").total_ns / 1e3, statements),
        "serve.cache.estimate_hit_ratio":
            _hit_ratio(caches_before["estimate"], caches_after["estimate"]),
        "serve.cache.estimate_key_us_per_stmt":
            _per(layer("serve.cache.estimate_key").total_ns / 1e3,
                 statements),
        "serve.cache.parse_hit_ratio":
            _hit_ratio(caches_before["parse"], caches_after["parse"]),
        "serve.cache.parse_evictions": (caches_after["parse"]["evictions"]
                                        - caches_before["parse"]["evictions"]),
        "serve.cache.plan_hit_ratio":
            _hit_ratio(caches_before["plan"], caches_after["plan"]),
        "serve.cache.plan_evictions": (caches_after["plan"]["evictions"]
                                       - caches_before["plan"]["evictions"]),
        "serve.batcher.wait_us_per_stmt":
            _per(layer("serve.batcher").self_ns / 1e3,
                 layer("serve.batcher").calls),
        "serve.batcher.batch_size_mean": _per(execute.rows, execute.calls),
        "serve.batcher.batches": execute.calls,
        "serve.fused.planned_share": _per(planned.rows, fused_rows),
        "serve.fused.self_us_per_stmt":
            _per((fused.self_ns + planned.self_ns) / 1e3, fused_rows),
        "featurize.encode_us_per_stmt":
            _per(layer("featurize.encode").total_ns / 1e3,
                 layer("featurize.encode").rows),
        "featurize.compile_calls": compiled.calls,
        "featurize.compile_us_per_call": _per(compiled.total_ns / 1e3,
                                              compiled.calls),
        "models.predict_us_per_stmt": _per(predict.total_ns / 1e3,
                                           predict.rows),
        "models.predict_rows_per_call": _per(predict.rows, predict.calls),
        "serve.feedback.us_per_call":
            _per(layer("serve.feedback").total_ns / 1e3,
                 layer("serve.feedback").calls),
        "feedback.monitor_us_per_record":
            _per(layer("feedback.monitor").total_ns / 1e3,
                 layer("feedback.monitor").calls),
        "obs.exemplar_us_per_call":
            _per(layer("obs.exemplar").total_ns / 1e3,
                 layer("obs.exemplar").calls),
        "loadgen.cpu_us_per_op":
            _per(untraced.client_cpu_ns / 1e3,
                 untraced.attempted - untraced.failed),
        "process.cpu_util": _per(untraced.process_cpu_s,
                                 untraced.wall_s * nproc),
        "trace.overhead_pct":
            _per((base_throughput - traced.throughput(speed)) * 100.0,
                 base_throughput),
    }


def span_table(spans: list[Span]) -> str:
    """Calls, rows, total and self time per span name, plus busy time."""
    layers = aggregate(spans)
    lines = [f"  {'span':34s} {'calls':>8s} {'rows':>8s} "
             f"{'total_ms':>10s} {'self_ms':>10s}"]
    for name in sorted(layers):
        stats = layers[name]
        lines.append(f"  {name:34s} {stats.calls:8d} {stats.rows:8d} "
                     f"{stats.total_ns / 1e6:10.1f} "
                     f"{stats.self_ns / 1e6:10.1f}")
    self_total = sum(stats.self_ns for stats in layers.values())
    lines.append(f"  self time {self_total / 1e6:.1f} ms of "
                 f"{busy_ns(spans) / 1e6:.1f} ms busy (root spans)")
    return "\n".join(lines)


def format_table(metrics: dict[str, float], units: dict[str, str]) -> str:
    """One ``name value unit`` line per metric, in ``units`` order."""
    return "\n".join(f"  {name:40s} {metrics[name]:14.4f} {units[name]}"
                     for name in units if name in metrics)
