"""Prometheus text exposition for the obs registries.

The JSON ``/metrics`` endpoint is byte-stable and machine-friendly, but
invisible to the standard scrape ecosystem.  This module renders the
cumulative :class:`~repro.obs.metrics_runtime.MetricsRegistry` and the
windowed :class:`~repro.obs.window.WindowRegistry` in the Prometheus
`text exposition format`_ (version 0.0.4):

* counters/gauges — one sample each, ``# TYPE`` annotated;
* histograms — **cumulative** ``_bucket{le="..."}`` samples (the JSON
  snapshot stores per-bucket counts; Prometheus wants running totals)
  plus ``_sum`` and ``_count``;
* windowed histograms — rendered as *summaries*: per-label-series
  ``{quantile="0.5|0.95|0.99"}`` samples from the merged window, plus
  ``_sum``/``_count``, so dashboards get sliding percentiles directly;
* SLO trackers — ``_good_total``/``_bad_total`` counters and a
  ``_burn_rate{window="short|long"}`` gauge pair.

Dotted obs names map to Prometheus identifiers by replacing every
``.`` with ``_`` (``serve.requests_total`` → ``serve_requests_total``);
RPR110 pins obs names to ``[a-z0-9_.]`` literals precisely so this
mapping never needs escaping and scrape series never churn.

Rendering is deterministic: families sort by output name, series by
label string, and floats print via ``repr`` — two identical registries
expose byte-identical pages.  :func:`parse_exposition` is the strict
round-trip validator the tests and the CI smoke step use; it is a
format checker, not a general Prometheus client.

.. _text exposition format:
   https://prometheus.io/docs/instrumenting/exposition_formats/
"""

from __future__ import annotations

import math
import re
from typing import Mapping

from repro.obs.metrics_runtime import MetricsRegistry, get_registry
from repro.obs.window import WindowRegistry, get_windows

__all__ = ["render_prometheus", "parse_exposition", "prometheus_name",
           "escape_label_value", "format_value", "CONTENT_TYPE"]

#: The scrape Content-Type for the 0.0.4 text format.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)$")
_LABEL_RE = re.compile(
    r'(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:\\.|[^"\\])*)"')


def prometheus_name(name: str) -> str:
    """Map a dotted obs metric name to a Prometheus identifier."""
    flat = name.replace(".", "_")
    if not _NAME_RE.match(flat):
        raise ValueError(
            f"metric name {name!r} does not map to a valid Prometheus "
            f"identifier ({flat!r})")
    return flat


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format rules."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def format_value(value: float) -> str:
    """A sample value as the exposition writes it (integers bare)."""
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _label_string(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{name}="{escape_label_value(value)}"'
                     for name, value in labels.items())
    return "{" + inner + "}"


def _sample(name: str, labels: Mapping[str, str], value: float) -> str:
    return f"{name}{_label_string(labels)} {format_value(value)}"


def _parse_series_labels(label_text: str, label_names: list[str]
                         ) -> dict[str, str]:
    """Split a window snapshot's ``k=v,k=v`` series key back to a dict."""
    if not label_text:
        return {}
    labels: dict[str, str] = {}
    remaining = label_text
    # Values may themselves contain "," or "=", so split on the known
    # ordered label names rather than naively on commas.
    for i, name in enumerate(label_names):
        prefix = f"{name}="
        if not remaining.startswith(prefix):
            raise ValueError(
                f"series key {label_text!r} does not match labels "
                f"{label_names}")
        remaining = remaining[len(prefix):]
        if i + 1 < len(label_names):
            cut = remaining.index(f",{label_names[i + 1]}=")
            labels[name] = remaining[:cut]
            remaining = remaining[cut + 1:]
        else:
            labels[name] = remaining
    return labels


def _render_histogram_family(name: str, snapshot: Mapping) -> list[str]:
    lines = [f"# TYPE {name} histogram"]
    cumulative = 0
    saw_inf = False
    for le, count in snapshot["buckets"]:
        cumulative += count
        if le == "+Inf":
            saw_inf = True
        lines.append(_sample(f"{name}_bucket", {"le": str(le)}, cumulative))
    if not saw_inf:
        lines.append(_sample(f"{name}_bucket", {"le": "+Inf"},
                             snapshot["count"]))
    lines.append(_sample(f"{name}_sum", {}, snapshot["sum"]))
    lines.append(_sample(f"{name}_count", {}, snapshot["count"]))
    return lines


def _render_window_family(name: str, snapshot: Mapping) -> list[str]:
    lines = [f"# TYPE {name} summary"]
    label_names = list(snapshot["labels"])
    for series_key in sorted(snapshot["series"]):
        series = snapshot["series"][series_key]
        labels = _parse_series_labels(series_key, label_names)
        for q in ("0.5", "0.95", "0.99"):
            quantile = series[{"0.5": "p50", "0.95": "p95",
                               "0.99": "p99"}[q]]
            if quantile is None:
                continue
            lines.append(_sample(name, {**labels, "quantile": q}, quantile))
        lines.append(_sample(f"{name}_sum", labels, series["sum"]))
        lines.append(_sample(f"{name}_count", labels, series["count"]))
    return lines


def _render_slo_family(name: str, snapshot: Mapping) -> list[str]:
    lines = [f"# TYPE {name}_good_total counter",
             _sample(f"{name}_good_total", {}, snapshot["good_total"]),
             f"# TYPE {name}_bad_total counter",
             _sample(f"{name}_bad_total", {}, snapshot["bad_total"]),
             f"# TYPE {name}_burn_rate gauge"]
    for window in ("long", "short"):
        lines.append(_sample(f"{name}_burn_rate", {"window": window},
                             snapshot["windows"][window]["burn_rate"]))
    return lines


def render_prometheus(registry: MetricsRegistry | None = None,
                      windows: WindowRegistry | None = None) -> str:
    """Render both registries as one exposition page (trailing newline).

    Families are emitted in sorted output-name order across both
    registries, so the page is a deterministic function of the two
    snapshots.
    """
    registry = registry if registry is not None else get_registry()
    windows = windows if windows is not None else get_windows()

    families: list[tuple[str, list[str]]] = []
    for name, snapshot in registry.snapshot().items():
        flat = prometheus_name(name)
        kind = snapshot["kind"]
        if kind == "counter":
            families.append((flat, [f"# TYPE {flat} counter",
                                    _sample(flat, {}, snapshot["value"])]))
        elif kind == "gauge":
            families.append((flat, [f"# TYPE {flat} gauge",
                                    _sample(flat, {}, snapshot["value"])]))
        elif kind == "histogram":
            families.append((flat, _render_histogram_family(flat, snapshot)))
    for name, snapshot in windows.snapshot().items():
        flat = prometheus_name(name)
        kind = snapshot["kind"]
        if kind == "window_histogram":
            families.append((flat, _render_window_family(flat, snapshot)))
        elif kind == "slo":
            families.append((flat, _render_slo_family(flat, snapshot)))

    families.sort(key=lambda family: family[0])
    lines: list[str] = []
    for _, family_lines in families:
        lines.extend(family_lines)
    return "\n".join(lines) + "\n" if lines else ""


def parse_exposition(text: str) -> dict[str, dict]:
    """Strictly parse an exposition page; raises ``ValueError`` on any
    malformed line.

    Returns ``family name -> {"type": ..., "samples": [(name, labels,
    value), ...]}``.  Validation beyond the grammar: every sample must
    belong to a ``# TYPE``-declared family (histogram samples may use
    the ``_bucket``/``_sum``/``_count`` suffixes, summaries
    ``_sum``/``_count``), histogram bucket counts must be cumulative
    (non-decreasing in ``le`` order), and a histogram's ``+Inf`` bucket
    must equal its ``_count``.
    """
    families: dict[str, dict] = {}
    suffix_owner: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: malformed TYPE line")
            _, _, family, kind = parts
            if kind not in ("counter", "gauge", "histogram", "summary"):
                raise ValueError(
                    f"line {lineno}: unknown metric type {kind!r}")
            if family in families:
                raise ValueError(
                    f"line {lineno}: duplicate TYPE for {family!r}")
            families[family] = {"type": kind, "samples": []}
            suffix_owner[family] = family
            if kind in ("histogram", "summary"):
                suffix_owner[f"{family}_sum"] = family
                suffix_owner[f"{family}_count"] = family
            if kind == "histogram":
                suffix_owner[f"{family}_bucket"] = family
            continue
        if line.startswith("#"):
            continue  # HELP/comment lines are legal; we don't emit them.
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        name = match.group("name")
        family = suffix_owner.get(name)
        if family is None:
            raise ValueError(
                f"line {lineno}: sample {name!r} has no preceding TYPE")
        labels: dict[str, str] = {}
        label_text = match.group("labels")
        if label_text:
            consumed = 0
            for label_match in _LABEL_RE.finditer(label_text):
                labels[label_match.group("name")] = label_match.group("value")
                consumed = label_match.end()
                if (consumed < len(label_text)
                        and label_text[consumed] == ","):
                    consumed += 1
            if consumed != len(label_text):
                raise ValueError(
                    f"line {lineno}: malformed labels: {{{label_text}}}")
        raw_value = match.group("value")
        if raw_value == "+Inf":
            value = float("inf")
        elif raw_value == "-Inf":
            value = float("-inf")
        else:
            try:
                value = float(raw_value)
            except ValueError:
                raise ValueError(
                    f"line {lineno}: malformed value {raw_value!r}"
                ) from None
        families[family]["samples"].append((name, labels, value))

    for family, data in families.items():
        if data["type"] != "histogram":
            continue
        # Validate each series group independently: a page merged from
        # several sources (the fleet router's ``worker``-labeled scrape)
        # carries one cumulative bucket run *per label set*, so the
        # cumulativity and +Inf/_count checks group on the non-``le``
        # labels rather than assuming a single unlabeled run.
        buckets: dict[tuple, list[tuple[str | None, float]]] = {}
        counts: dict[tuple, float] = {}
        for name, labels, value in data["samples"]:
            group = tuple(sorted((key, val) for key, val in labels.items()
                                 if key != "le"))
            if name == f"{family}_bucket":
                buckets.setdefault(group, []).append(
                    (labels.get("le"), value))
            elif name == f"{family}_count" and group not in counts:
                counts[group] = value
        for group, run in buckets.items():
            previous = -math.inf
            inf_count = None
            for le, value in run:
                if le is None:
                    raise ValueError(
                        f"histogram {family!r} bucket is missing its "
                        f"le label")
                if value < previous:
                    raise ValueError(
                        f"histogram {family!r} buckets are not cumulative")
                previous = value
                if le == "+Inf":
                    inf_count = value
            if inf_count is None:
                raise ValueError(
                    f"histogram {family!r} has no +Inf bucket")
            if group in counts and counts[group] != inf_count:
                raise ValueError(
                    f"histogram {family!r} +Inf bucket ({inf_count}) does "
                    f"not match _count ({counts[group]})")
    return families
