"""``repro.obs`` — cross-layer tracing, metrics, and event timelines.

The paper's argument is that attacks cross layers; this package makes
the reproduction's simulators show it.  Every simulator reports to one
process-wide :class:`~repro.obs.runtime.Instrumentation` instance
(:data:`~repro.obs.runtime.OBS`): hierarchical :mod:`spans
<repro.obs.trace>` with wall/CPU timing, :mod:`Counter/Gauge/Histogram
metrics <repro.obs.metrics>`, and a typed :mod:`event log
<repro.obs.events>` with a bounded ring buffer and JSONL export.
Reporters render span trees, metrics tables, a validated JSON document,
and a :mod:`cross-layer timeline <repro.obs.timeline>` that merges
events from several simulators onto one clock.

Instrumentation is **off by default** and costs one attribute read per
hook while off (asserted by ``benchmarks/bench_obs_overhead.py``).

Quickstart::

    from repro import obs

    with obs.instrumented():
        run_breach(n_vehicles=6, days=2)
        report = obs.TraceReport.from_instrumentation("breach")
    print(report.to_table())

CLI::

    python -m repro trace onboard-hardened             # span tree + events
    python -m repro trace pkes-legacy --timeline       # cross-layer timeline
    python -m repro trace cariad-breach --json         # validated JSON doc
"""

from repro.obs.events import EventLog
from repro.obs.report import (SchemaError, TraceReport, render_metrics_table,
                              render_span_tree, validate_metrics_dict,
                              validate_trace_dict)
from repro.obs.runtime import instrumented
from repro.obs.scenarios import run_trace_scenario
from repro.obs.timeline import Timeline, merge_events

__all__ = [
    "EventLog",
    "SchemaError",
    "Timeline",
    "TraceReport",
    "instrumented",
    "merge_events",
    "render_metrics_table",
    "render_span_tree",
    "run_trace_scenario",
    "validate_metrics_dict",
    "validate_trace_dict",
]
