"""Sentinel campaigns: the five scenarios streamed through the engine.

Each campaign replays a chaos workload (the same scenario postures,
fault plans, and injector streams as :mod:`repro.faults.chaos`) but
emits *operational telemetry* — ranging residuals, per-sender frame
rates, SecOC rejects, request statuses, DID resolutions — into a live
:class:`~repro.obs.events.EventLog` that a :class:`SentinelEngine`
consumes online via the ``subscribe`` hook.  The scenario record
(:class:`repro.lint.scenarios.Scenario`) names the legit CAN
``senders`` and the ``anchors`` that map each telemetry source onto a
flow-graph node for the cascade correlator.  The engine never sees the
injector's ``FAULT_INJECTED`` ground truth; it must detect campaigns
from the same evidence a deployed IDS would have.

The closed loop is real: the engine's alarms feed a
:class:`~repro.core.response.ResponseEngine` attached to a
:class:`~repro.faults.degradation.DegradationManager`, so a hard ALARM
isolates the babbling ECU (stopping the storm it detected) and trust
collapse escalates the degradation ladder.  Everything derives from
``(plan, scenario, base seed)`` through :mod:`repro.core.rng`, so the
campaign document is byte-identical across runs.
"""

from __future__ import annotations

from repro.core.layers import Layer
from repro.core.response import ResponseEngine
from repro.faults.chaos import DEFAULT_DURATION, _scenario_window
from repro.faults.degradation import DegradationManager, ServiceLevel
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan, get_plan
from repro.faults.resilience import CircuitBreaker, VirtualClock
from repro.core.rng import python_rng
from repro.lint.scenarios import Scenario, get_scenario
from repro.obs.events import EventKind, EventLog
from repro.sentinel.correlator import CascadeCorrelator
from repro.sentinel.engine import SentinelEngine
from repro.ssi.did import Did, DidDocument, KeyPair
from repro.ssi.registry import (
    CachingResolver,
    RegistryUnavailable,
    VerifiableDataRegistry,
)

__all__ = ["run_sentinel_scenario", "run_sentinel_campaign"]


def _build_correlator(scenario: Scenario) -> CascadeCorrelator:
    from repro.flow.graph import build_flow_graph

    return CascadeCorrelator.from_flow_graph(
        build_flow_graph(scenario.build()), scenario.anchors)


def run_sentinel_scenario(name: str, plan: FaultPlan, *, base_seed: int = 0,
                          duration: int = DEFAULT_DURATION) -> dict:
    """Stream one scenario's telemetry through the sentinel engine."""
    scenario = get_scenario(name)
    if duration < 1:
        raise ValueError("duration must be >= 1 tick")

    injector = FaultInjector(plan, base_seed=base_seed)
    clock = VirtualClock()
    residual_rng = python_rng(f"sentinel/{plan.name}/{name}/residual", base_seed)
    frames_rng = python_rng(f"sentinel/{plan.name}/{name}/frames", base_seed)
    latency_rng = python_rng(f"sentinel/{plan.name}/{name}/latency", base_seed)

    log = EventLog(capacity=8192)
    response = ResponseEngine(escalation_threshold=8)
    manager = DegradationManager(
        degrade_threshold=scenario.degrade_threshold,
        degrade_streak=scenario.degrade_streak,
        recovery_streak=scenario.recovery_streak,
        allow_recovery=scenario.allow_recovery)
    manager.attach(response)
    engine = SentinelEngine(name, correlator=_build_correlator(scenario),
                            response=response)
    detach = engine.attach(log)

    breaker: CircuitBreaker | None = None
    if "cloud" in scenario.subsystems and scenario.resilient:
        breaker = CircuitBreaker("telemetry-backend", clock=clock,
                                 failure_threshold=3, recovery_time_s=3.0)

    resolver: CachingResolver | None = None
    did: Did | None = None
    registry_down = {"down": False}
    if "ssi" in scenario.subsystems and scenario.resilient:
        registry = VerifiableDataRegistry()
        did = Did("vehicle-7")
        registry.register(DidDocument.for_keypair(
            did, KeyPair.from_seed_label("chaos/vehicle-7")))
        resolver = CachingResolver(registry,
                                   unavailable=lambda: registry_down["down"])

    window_start, window_end = _scenario_window(plan, scenario.subsystems)
    attempts = 3 if scenario.resilient else 1
    floor_cleared = False

    def fires_after_retries(kind: FaultKind, target: str, t: float) -> bool:
        """A fault only *lands* if every (retried) attempt hits it."""
        for _ in range(attempts):
            if not injector.fires(kind, target, t):
                return False
        return True

    for tick in range(duration):
        t = float(tick)
        clock.now = t

        if "phy" in scenario.subsystems:
            corrupted = fires_after_retries(
                FaultKind.PHY_SAMPLE_CORRUPTION, "uwb-anchor", t)
            nlos = (not corrupted) and fires_after_retries(
                FaultKind.PHY_NLOS_BURST, "uwb-anchor", t)
            residual = residual_rng.gauss(0.0, 0.05)
            rejected = False
            if corrupted:
                if scenario.resilient:
                    rejected = True  # secure receiver discards the sample
                else:
                    magnitude = injector.magnitude(
                        FaultKind.PHY_SAMPLE_CORRUPTION, "uwb-anchor", t)
                    residual = float(injector.corruption_noise(
                        FaultKind.PHY_SAMPLE_CORRUPTION, "uwb-anchor",
                        1, magnitude)[0])
            elif nlos:
                if scenario.resilient:
                    rejected = True
                else:
                    residual = 1.0 + abs(residual_rng.gauss(0.0, 1.0))
            if rejected:
                log.emit(EventKind.RANGING, Layer.PHYSICAL, "uwb-anchor",
                         "secure ranging rejected implausible sample",
                         t=t, rejected=True, residual_m=0.0)
            else:
                log.emit(EventKind.RANGING, Layer.PHYSICAL, "uwb-anchor",
                         f"residual {residual:.2f} m", t=t,
                         rejected=False, residual_m=round(residual, 4))
            manager.report("phy", not corrupted and not nlos)

        if "ivn" in scenario.subsystems:
            babbling = injector.fires(FaultKind.IVN_BABBLING_IDIOT,
                                      "ecu-babbler", t)
            for sender in scenario.senders:
                frames = frames_rng.randint(3, 5)
                log.emit(EventKind.FRAME_SENT, Layer.NETWORK, "zonal-can",
                         f"{sender}: {frames} frame(s)", t=t,
                         sender=sender, frames=frames)
            babbler_active = (babbling and "ecu-babbler"
                              not in response.isolated_components())
            if babbler_active:
                # A hardened gateway rate-polices the port; a flat bus
                # carries the full storm.
                frames = 8 if scenario.resilient else 24
                log.emit(EventKind.FRAME_SENT, Layer.NETWORK, "zonal-can",
                         f"ecu-babbler: {frames} frame(s)", t=t,
                         sender="ecu-babbler", frames=frames)
            drop = fires_after_retries(FaultKind.IVN_FRAME_DROP,
                                       "zonal-can", t)
            flip = fires_after_retries(FaultKind.IVN_BIT_FLIP,
                                       "zonal-can", t)
            if flip and scenario.resilient:
                log.emit(EventKind.MAC_REJECTED, Layer.NETWORK, "zonal-can",
                         "SecOC MAC verification failed", t=t)
            ok = (not (babbler_active and not scenario.resilient)
                  and not drop and not flip)
            manager.report("ivn", ok)

        if "cloud" in scenario.subsystems:
            def attempt_once(now: float) -> str:
                if injector.fires(FaultKind.CLOUD_OUTAGE,
                                  "telemetry-backend", now):
                    return "5xx"
                if injector.fires(FaultKind.CLOUD_TIMEOUT,
                                  "telemetry-backend", now):
                    return "timeout"
                if injector.fires(FaultKind.CLOUD_LATENCY,
                                  "telemetry-backend", now):
                    return "timeout"
                return "ok"

            latency_ms = latency_rng.uniform(40.0, 120.0)
            if breaker is not None:
                if not breaker.allow():
                    status = "shed"
                else:
                    status = "ok"
                    for _ in range(attempts):
                        status = attempt_once(t)
                        if status == "ok":
                            break
                    if status == "ok":
                        breaker.record_success()
                    else:
                        breaker.record_failure()
            else:
                status = attempt_once(t)
            if status != "ok":
                latency_ms = 400.0
            log.emit(EventKind.CLOUD_REQUEST, Layer.DATA, "telemetry-backend",
                     f"GET /telemetry -> {status}", t=t, status=status,
                     latency_ms=round(latency_ms, 1))
            manager.report("cloud", status == "ok")

        if "ssi" in scenario.subsystems:
            down = injector.fires(FaultKind.SSI_REGISTRY_DOWN,
                                  "did-registry", t)
            registry_down["down"] = down
            if resolver is not None and did is not None:
                try:
                    resolver.resolve(did)
                    status = "stale" if down else "ok"
                except RegistryUnavailable:
                    status = "fail"
            else:
                status = "fail" if down else "ok"
            log.emit(EventKind.DID_RESOLUTION, Layer.SOFTWARE_PLATFORM,
                     "did-registry", f"resolve vehicle-7 -> {status}",
                     t=t, status=status)
            manager.report("ssi", status != "fail")

        engine.tick(t)
        manager.tick(t)

        if scenario.resilient and not floor_cleared and t >= window_end:
            manager.clear_response_floor()
            floor_cleared = True

    detach()
    sentinel = engine.to_dict()
    degradation = manager.to_dict()
    first_alarm = sentinel["firstAlarmT"]
    safe_stop_t = next(
        (change["t"] for change in degradation["changes"]
         if change["level"] == ServiceLevel.SAFE_STOP.name.lower()), None)
    lead = (safe_stop_t - first_alarm
            if safe_stop_t is not None and first_alarm is not None else None)
    return {
        "scenario": scenario.name,
        "description": scenario.description,
        "resilient": scenario.resilient,
        "durationTicks": duration,
        "window": {"start": window_start, "end": window_end},
        "faults": {"injected": injector.count,
                   "byKind": injector.count_by_kind()},
        "sentinel": sentinel,
        "response": {"alerts": len(response.decisions),
                     "isolated": sorted(response.isolated_components())},
        "degradation": degradation,
        "detection": {
            "alarmRaised": first_alarm is not None,
            "firstAlarmT": first_alarm,
            "alarmIncidents": len(sentinel["incidents"]),
            "trustCollapsed": engine.trust.collapsed(),
            "safeStopT": safe_stop_t,
            "leadTicks": lead,
            "detectedBeforeSafeStop": (
                first_alarm is not None
                and (safe_stop_t is None or first_alarm < safe_stop_t)),
        },
    }


def run_sentinel_campaign(scenarios: list[str], plan_name: str, *,
                          base_seed: int = 0,
                          duration: int = DEFAULT_DURATION) -> dict:
    """Run several scenarios under one plan; assemble the report doc."""
    from repro import __version__

    plan = get_plan(plan_name)
    results = [run_sentinel_scenario(name, plan, base_seed=base_seed,
                                     duration=duration)
               for name in scenarios]
    detected = sorted(r["scenario"] for r in results
                      if r["detection"]["alarmRaised"])
    clean = sorted(r["scenario"] for r in results
                   if not r["detection"]["alarmRaised"])
    collapsed = sorted({source for r in results
                        for source in r["detection"]["trustCollapsed"]})
    return {
        "version": "1.0",
        "tool": {"name": "repro-sentinel", "version": __version__},
        "plan": plan.to_dict(),
        "baseSeed": base_seed,
        "scenarios": results,
        "summary": {
            "scenarioCount": len(results),
            "alarmIncidents": sum(r["detection"]["alarmIncidents"]
                                  for r in results),
            "scenariosDetected": detected,
            "scenariosClean": clean,
            "trustCollapsed": collapsed,
        },
    }
