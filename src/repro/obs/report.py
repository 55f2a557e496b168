"""Trace reports: span tree / metrics table text and a validated JSON doc.

The JSON schema (version ``1.0``) mirrors ``repro.lint.report``'s
SARIF-lite conventions — small, flat, stable::

    {
      "version": "1.0",
      "tool": {"name": "repro-obs", "version": "<package version>"},
      "scenario": "<scenario name>",
      "spans": [
        {"name", "wallMs", "cpuMs", "status", "tags",
         "children": [<same shape>], "error"?}
      ],
      "events": [
        {"seq", "t", "kind", "layer", "source", "message", "fields"}
      ],
      "metrics": {
        "counters": {"<name>": <int>},
        "gauges": {"<name>": <number>},
        "histograms": {"<name>": {"count", "min", "max", "mean",
                                  "p50", "p95", "p99"}}
      },
      "result": {"<key>": <scalar>},
      "summary": {"spans": <int>, "events": <int>, "layers": [<str>],
                  "byKind": {"<kind>": <int>}, "droppedEvents": <int>}
    }

The producer fills ``summary`` with :func:`trace_summary` (plus
``droppedEvents``) and the validator checks it against the same function.
:func:`validate_trace_dict` checks a parsed document against that
schema and raises :class:`SchemaError` on any violation — the CI gate
and the round-trip tests both call it.
"""

from __future__ import annotations

from collections import Counter

from repro.core.layers import Layer
from repro.core.schema import (COUNT, NUMBER, STRING, TEXT, SchemaError,
                               derived, header, leaf, list_of, map_of, number,
                               obj, one_of, require, validate)
from repro.obs.events import EventKind, SimEvent
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import OBS, Instrumentation
from repro.obs.timeline import render_timeline
from repro.obs.trace import Span

__all__ = ["TraceReport", "SchemaError", "validate_trace_dict",
           "validate_metrics_dict", "trace_summary", "render_span_tree",
           "render_metrics_table"]

SCHEMA_VERSION = "1.0"
TOOL_NAME = "repro-obs"


# --------------------------------------------------------------------------
# rendering
# --------------------------------------------------------------------------

def _render_span(span: Span, indent: int, lines: list[str]) -> None:
    tags = "".join(f" {k}={v}" for k, v in sorted(span.tags.items()))
    marker = "" if span.status == "ok" else f"  !! {span.status}: {span.error}"
    lines.append(f"{'  ' * indent}{span.name:{max(1, 40 - 2 * indent)}s} "
                 f"wall={span.wall_s * 1e3:9.3f}ms cpu={span.cpu_s * 1e3:9.3f}ms"
                 f"{tags}{marker}")
    for child in span.children:
        _render_span(child, indent + 1, lines)


def render_span_tree(roots: list[Span]) -> str:
    """Indented span tree with wall/CPU timings."""
    if not roots:
        return "(no spans recorded)"
    lines: list[str] = []
    for root in roots:
        _render_span(root, 0, lines)
    return "\n".join(lines)


def render_metrics_table(registry: MetricsRegistry) -> str:
    """Counters, gauges, and histogram summaries as an aligned table."""
    doc = registry.to_json_dict()
    rows: list[tuple[str, str, str]] = []
    for name, value in doc["counters"].items():
        rows.append((name, "counter", str(value)))
    for name, value in doc["gauges"].items():
        rows.append((name, "gauge", f"{value:g}"))
    for name, summary in doc["histograms"].items():
        rows.append((name, "histogram",
                     f"n={summary['count']} mean={summary['mean']:g} "
                     f"p50={summary['p50']:g} p95={summary['p95']:g} "
                     f"max={summary['max']:g}"))
    if not rows:
        return "(no metrics recorded)"
    width_name = max(len(r[0]) for r in rows)
    lines = [f"{'metric'.ljust(width_name)}  {'type':9s} value",
             f"{'-' * width_name}  {'-' * 9} {'-' * 40}"]
    for name, kind, value in sorted(rows):
        lines.append(f"{name.ljust(width_name)}  {kind:9s} {value}")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# the report object
# --------------------------------------------------------------------------

class TraceReport:
    """Everything one instrumented run produced, ready to render/export."""

    def __init__(self, scenario: str, *, spans: list[Span],
                 events: list[SimEvent], metrics: MetricsRegistry,
                 result: dict | None = None, dropped_events: int = 0) -> None:
        self.scenario = scenario
        self.spans = list(spans)
        self.events = list(events)
        self.metrics = metrics
        self.result = dict(result or {})
        self.dropped_events = dropped_events

    @classmethod
    def from_instrumentation(cls, scenario: str,
                             obs: Instrumentation | None = None,
                             result: dict | None = None) -> "TraceReport":
        """Snapshot the (default: process-wide) instrumentation state."""
        obs = obs or OBS
        return cls(scenario, spans=list(obs.tracer.roots),
                   events=list(obs.events), metrics=obs.metrics,
                   result=result, dropped_events=obs.events.dropped)

    def to_table(self) -> str:
        """Human-readable report: span tree + event timeline + summary."""
        by_kind = Counter(event.kind.value for event in self.events)
        kinds = ", ".join(f"{count} {kind}" for kind, count
                          in sorted(by_kind.items()))
        layer_names = ", ".join(sorted({event.layer.name.lower()
                                        for event in self.events}))
        spans = sum(span.span_count() for span in self.spans)
        sections = [
            f"=== trace: {self.scenario} ===",
            render_span_tree(self.spans),
            "",
            render_timeline(self.events, limit=40),
            "",
            f"{self.scenario}: {spans} span(s), "
            f"{len(self.events)} event(s) ({kinds or 'none'}) "
            f"across layers [{layer_names or 'none'}]",
        ]
        if self.dropped_events:
            sections.append(f"warning: ring buffer dropped "
                            f"{self.dropped_events} event(s) (saturated)")
        if self.result:
            sections.append("result: " + ", ".join(
                f"{key}={value}" for key, value in sorted(self.result.items())))
        return "\n".join(sections)

    def to_json_dict(self) -> dict:
        """The trace document (see module docstring for the schema)."""
        from repro import __version__

        document = {
            "version": SCHEMA_VERSION,
            "tool": {"name": TOOL_NAME, "version": __version__},
            "scenario": self.scenario,
            "spans": [span.to_dict() for span in self.spans],
            "events": [event.to_dict() for event in self.events],
            "metrics": self.metrics.to_json_dict(),
            "result": dict(self.result),
        }
        # Only the ring buffer knows how many events it dropped.
        document["summary"] = {**trace_summary(document),
                               "droppedEvents": self.dropped_events}
        return document


# --------------------------------------------------------------------------
# schema validation
# --------------------------------------------------------------------------

_SCALARS = map_of(STRING, leaf(lambda v: isinstance(v, (str, int, float)),
                               "a scalar"))


def _span(node: object, where: str) -> None:
    _SPAN(node, where)  # late-bound: spans nest


def _span_count(span: dict) -> int:
    return 1 + sum(_span_count(child) for child in span["children"])


_SPAN = obj(
    {"name": TEXT, "wallMs": number(0), "cpuMs": number(0),
     "status": one_of({"ok", "error"}), "tags": _SCALARS,
     "children": list_of(_span)},
    optional={"error": STRING},
    check=lambda span, where: require(
        ("error" in span) == (span["status"] == "error"), where,
        "error text iff status == 'error'"))
_EVENT = obj({
    "seq": COUNT, "t": NUMBER, "kind": one_of({k.value for k in EventKind}),
    "layer": one_of({layer.name.lower() for layer in Layer}),
    "source": STRING, "message": STRING, "fields": _SCALARS,
})
_HISTOGRAM = obj(
    {"count": COUNT, **{key: NUMBER for key in ("min", "max", "mean", "p50",
                                                "p95", "p99")}},
    check=lambda hist, where: require(
        not hist["count"] or hist["min"] <= hist["p50"] <= hist["max"], where,
        "percentiles must lie within [min, max]"))
_METRICS = obj({"counters": map_of(STRING, COUNT),
                "gauges": map_of(STRING, NUMBER),
                "histograms": map_of(STRING, _HISTOGRAM)})


def trace_summary(document: dict) -> dict:
    """The ``summary`` block but ``droppedEvents``, from spans and events."""
    events = document["events"]
    return {
        "spans": sum(map(_span_count, document["spans"])),
        "events": len(events),
        "layers": sorted({event["layer"] for event in events}),
        "byKind": dict(Counter(event["kind"] for event in events)),
    }


_DOCUMENT = obj({
    **header(SCHEMA_VERSION, TOOL_NAME),
    "scenario": TEXT,
    "spans": list_of(_span),
    "events": list_of(_EVENT),
    "metrics": _METRICS,
    "result": _SCALARS,
    "summary": obj({"spans": COUNT, "events": COUNT, "layers": list_of(STRING),
                    "byKind": map_of(STRING, COUNT), "droppedEvents": COUNT}),
}, check=derived("summary", trace_summary))


def validate_metrics_dict(metrics: dict) -> None:
    """Raise :class:`SchemaError` unless ``metrics`` is a valid
    :meth:`~repro.obs.metrics.MetricsRegistry.to_json_dict` document,
    the ``metrics`` block of a trace report, without requiring the full
    trace-report envelope.
    """
    validate(metrics, _METRICS)


def validate_trace_dict(document: dict) -> None:
    """Raise :class:`SchemaError` unless ``document`` matches the schema."""
    validate(document, _DOCUMENT)
