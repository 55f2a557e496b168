"""BENCH-SENTINEL — streaming detection cost and detection latency.

The sentinel engine sits on the observability layer's push path: every
emitted event fans out to the subscribed engine synchronously, so the
per-event cost bounds how much telemetry a simulation can stream while
being watched.  Three claims are pinned here:

1. **Per-event cost is microseconds.** Routing one pushed event through
   the detector table is O(1); the bench times a realistic mixed-kind
   stream through an attached engine, ticks included.
2. **Detection is prompt.** For every insecure scenario under the
   ``severe`` plan the first ALARM lands within a few ticks of the
   fault window opening — and strictly before the degradation ladder
   reaches SAFE_STOP (the lead the response layer gets to act in).
3. **Reports replay byte-identically.** The same (scenario, plan, base
   seed) triple produces the same JSON document, byte for byte.

The measured numbers live in the tables the bench shows, which
``python -m repro run BENCH-SENTINEL --json`` records as artifacts.
"""

from __future__ import annotations

import json

from repro.core.layers import Layer
from repro.experiments import best_of
from repro.faults import get_plan
from repro.lint import scenario_names
from repro.obs.events import EventKind, EventLog
from repro.sentinel import (
    SentinelEngine,
    run_sentinel_campaign,
    run_sentinel_scenario,
)

N_EVENTS = 5000
EVENTS_PER_TICK = 10
INSECURE_SCENARIOS = ("pkes-legacy", "onboard-insecure", "cariad-breach",
                      "maas-platform")


def _stream_workload(n_events: int = N_EVENTS) -> SentinelEngine:
    """A mixed telemetry stream pushed through an attached engine."""
    log = EventLog(capacity=256)
    engine = SentinelEngine("bench")
    engine.attach(log)
    senders = ("zc-left", "zc-right", "ecu-can-1", "ecu-can-2", "ecu-can-3")
    ticks = n_events // EVENTS_PER_TICK
    for tick in range(ticks):
        t = float(tick)
        for index, sender in enumerate(senders):
            log.emit(EventKind.FRAME_SENT, Layer.NETWORK, "zonal-can",
                     "frame batch", t=t, sender=sender, frames=3 + index % 3)
        log.emit(EventKind.RANGING, Layer.PHYSICAL, "uwb-anchor",
                 "residual", t=t, rejected=False,
                 residual_m=0.01 * (tick % 7))
        log.emit(EventKind.MAC_REJECTED, Layer.NETWORK, "zonal-can",
                 "bad mac", t=t)
        log.emit(EventKind.CLOUD_REQUEST, Layer.DATA, "telemetry-backend",
                 "GET", t=t, status="ok" if tick % 3 else "5xx",
                 latency_ms=80.0)
        log.emit(EventKind.DID_RESOLUTION, Layer.SOFTWARE_PLATFORM,
                 "did-registry", "resolve",
                 t=t, status="ok" if tick % 4 else "stale")
        log.emit(EventKind.FRAME_DELIVERED, Layer.NETWORK, "zonal-can",
                 "delivered", t=t)
        engine.tick(t)
    return engine


def test_per_event_streaming_cost_and_detection_latency(show):
    """The acceptance pins: µs-scale per-event cost, prompt detection."""
    stream_s = best_of(_stream_workload) / N_EVENTS
    engine = _stream_workload()
    assert engine.events_consumed == N_EVENTS

    severe = get_plan("severe")

    rows = [("stream (mixed kinds)", f"{stream_s * 1e9:8.0f} ns/event",
             "-", "-", "-")]
    latencies = []
    for name in INSECURE_SCENARIOS:
        result = run_sentinel_scenario(name, severe)
        detection = result["detection"]
        assert detection["alarmRaised"], f"{name}: no alarm under severe"
        assert detection["detectedBeforeSafeStop"], (
            f"{name}: alarm at {detection['firstAlarmT']} missed safe stop "
            f"at {detection['safeStopT']}")
        latency = detection["firstAlarmT"] - result["window"]["start"]
        assert latency >= 0.0
        latencies.append(latency)
        rows.append((name, f"alarm t={detection['firstAlarmT']:g}",
                     f"{latency:g} after window",
                     f"stop t={detection['safeStopT']:g}",
                     f"lead {detection['leadTicks']:g}"))
    rows.append(("worst case", "-", f"{max(latencies):g} after window",
                 "-", "-"))

    show("BENCH-SENTINEL — streaming cost + detection latency (severe)",
         rows, header=("workload", "cost / first alarm", "latency",
                       "safe stop", "lead"))
    assert stream_s < 100e-6, (
        f"per-event streaming cost {stream_s * 1e6:.1f} µs exceeds the "
        f"100 µs budget")
    assert max(latencies) <= 6.0, (
        f"worst-case detection latency {max(latencies):g} ticks after the "
        f"fault window opened")


def test_campaign_cost_is_ci_friendly(show, benchmark):
    """A full five-scenario streamed campaign stays CI-cheap."""
    document = benchmark(
        lambda: run_sentinel_campaign(scenario_names(), "baseline"))
    assert document["summary"]["scenarioCount"] == 5


def test_output_byte_identical_per_plan_and_seed(show):
    """Same (scenarios, plan, seed) -> the same bytes, every time."""
    names = scenario_names()
    rows = []
    for plan_name in ("baseline", "severe"):
        first = json.dumps(run_sentinel_campaign(names, plan_name),
                           sort_keys=True)
        second = json.dumps(run_sentinel_campaign(names, plan_name),
                            sort_keys=True)
        assert first == second, f"{plan_name}: report not deterministic"
        rows.append((plan_name, len(first), "byte-identical"))
    shifted = json.dumps(run_sentinel_campaign(names, "baseline",
                                               base_seed=7), sort_keys=True)
    baseline = json.dumps(run_sentinel_campaign(names, "baseline"),
                          sort_keys=True)
    assert shifted != baseline, "base seed must reshard the rng streams"
    show("BENCH-SENTINEL — output stability",
         rows + [("baseline seed=7", len(shifted), "differs from seed=0")],
         header=("plan", "bytes", "verdict"))
