"""Sentinel campaigns: the five scenarios streamed through the engine.

Each campaign replays a chaos workload on the harness
:mod:`repro.faults.chaos` runs on too (:mod:`repro.faults.harness`: the
same scenario postures, fault plans, injector streams, degradation
ladder, breaker, fault window and report document), but its tick loop
produces *operational telemetry* — ranging residuals, per-sender frame
rates, SecOC rejects, request statuses, DID resolutions — that a
:class:`SentinelEngine` consumes online, tick by tick.  The runner hands
each record to the engine as a typed call (``engine.observe`` plus the
detector's intake method, e.g. ``add_frames``); a live
:class:`~repro.obs.events.EventLog` attached with ``engine.attach``
would carry the same records as events.  The scenario record
(:class:`repro.lint.scenarios.Scenario`) names the legit CAN
``senders`` and the ``anchors`` that map each telemetry source onto a
flow-graph node for the cascade correlator.  The engine never sees the
injector's ``FAULT_INJECTED`` ground truth; it must detect campaigns
from the same evidence a deployed IDS would have.

The closed loop is real: the engine's alarms feed the harness's
:class:`~repro.core.response.ResponseEngine`, which is attached to its
:class:`~repro.faults.degradation.DegradationManager`, so a hard ALARM
isolates the babbling ECU (stopping the storm it detected) and trust
collapse escalates the degradation ladder.  Everything derives from
``(plan, scenario, base seed)`` through :mod:`repro.core.rng`, so the
campaign document is byte-identical across runs.
"""

from __future__ import annotations

from functools import lru_cache

from repro.core.layers import Layer
from repro.core.rng import python_rng
from repro.faults.harness import (
    BABBLING,
    BIT_FLIP,
    CORRUPTION,
    FRAME_DROP,
    LATENCY,
    NLOS,
    OUTAGE,
    REGISTRY_DOWN,
    TIMEOUT,
    campaign_document,
    did_registry,
    open_scenario,
)
from repro.faults.plan import DEFAULT_DURATION, FaultKind, FaultPlan
from repro.lint.scenarios import get_scenario
from repro.sentinel.correlator import CascadeCorrelator
from repro.sentinel.detectors import default_detectors
from repro.sentinel.engine import SentinelEngine
from repro.sentinel.report import SCHEMA_VERSION, TOOL_NAME, detection, sentinel_summary
from repro.ssi.registry import CachingResolver, RegistryUnavailable

__all__ = ["run_sentinel_scenario", "run_sentinel_campaign"]

# The layers the tick loop books telemetry under, resolved once.
_PHYSICAL = Layer.PHYSICAL
_NETWORK = Layer.NETWORK
_DATA = Layer.DATA
_PLATFORM = Layer.SOFTWARE_PLATFORM


@lru_cache(maxsize=None)
def _adjacency(name: str) -> dict[str, set[str]]:
    """The correlator's source adjacency for one scenario.

    A pure function of the scenario record, so it is built once per
    process; :class:`CascadeCorrelator` copies it, and every run keeps
    its own incident state.
    """
    from repro.flow.graph import build_flow_graph

    scenario = get_scenario(name)
    return CascadeCorrelator.from_flow_graph(
        build_flow_graph(scenario.build()), scenario.anchors).adjacency


def run_sentinel_scenario(name: str, plan: FaultPlan, *, base_seed: int = 0,
                          duration: int = DEFAULT_DURATION) -> dict:
    """Stream one scenario's telemetry through the sentinel engine."""
    harness = open_scenario(name, plan, base_seed, duration)
    scenario, injector, clock = harness.scenario, harness.injector, harness.clock
    response, manager, breaker = harness.response, harness.manager, harness.breaker
    fires = injector.fires
    residual_rng = python_rng(f"sentinel/{plan.name}/{name}/residual", base_seed)
    frames_rng = python_rng(f"sentinel/{plan.name}/{name}/frames", base_seed)
    latency_rng = python_rng(f"sentinel/{plan.name}/{name}/latency", base_seed)

    report = manager.report
    can, secoc, ranging, budget, resolution = detectors = default_detectors()
    engine = SentinelEngine(name, detectors=detectors,
                            correlator=CascadeCorrelator(_adjacency(name)),
                            response=response)
    observe = engine.observe

    resolver: CachingResolver | None = None
    registry_down = {"down": False}
    if "ssi" in scenario.subsystems and scenario.resilient:
        registry, did = did_registry()
        resolver = CachingResolver(registry,
                                   unavailable=lambda: registry_down["down"])

    window_end = harness.window[1]
    resilient = scenario.resilient
    attempts = 3 if resilient else 1
    floor_cleared = False
    has_phy, has_ivn, has_cloud, has_ssi = (
        subsystem in scenario.subsystems
        for subsystem in ("phy", "ivn", "cloud", "ssi"))
    senders = scenario.senders

    def fires_after_retries(kind: FaultKind, target: str, t: float) -> bool:
        """A fault only *lands* if every (retried) attempt hits it."""
        for _ in range(attempts):
            if not fires(kind, target, t):
                return False
        return True

    def attempt_once(now: float) -> str:
        if fires(OUTAGE, "telemetry-backend", now):
            return "5xx"
        if fires(TIMEOUT, "telemetry-backend", now):
            return "timeout"
        if fires(LATENCY, "telemetry-backend", now):
            return "timeout"
        return "ok"

    for tick in range(duration):
        t = float(tick)
        clock.now = t

        if has_phy:
            corrupted = fires_after_retries(CORRUPTION, "uwb-anchor", t)
            nlos = (not corrupted) and fires_after_retries(
                NLOS, "uwb-anchor", t)
            residual = residual_rng.gauss(0.0, 0.05)
            rejected = False
            if corrupted:
                if resilient:
                    rejected = True  # secure receiver discards the sample
                else:
                    magnitude = injector.magnitude(CORRUPTION, "uwb-anchor", t)
                    residual = float(injector.corruption_noise(
                        CORRUPTION, "uwb-anchor", 1, magnitude)[0])
            elif nlos:
                if resilient:
                    rejected = True
                else:
                    residual = 1.0 + abs(residual_rng.gauss(0.0, 1.0))
            observe("uwb-anchor", _PHYSICAL)
            if rejected:
                ranging.add_reject("uwb-anchor")
            else:
                ranging.add_residual("uwb-anchor", round(residual, 4))
            report("phy", not corrupted and not nlos)

        if has_ivn:
            babbling = fires(BABBLING, "ecu-babbler", t)
            for sender in senders:
                observe(sender, _NETWORK)
                can.add_frames(sender, frames_rng.randint(3, 5))
            babbler_active = (babbling and "ecu-babbler"
                              not in response.isolated_components())
            if babbler_active:
                # A hardened gateway rate-polices the port; a flat bus
                # carries the full storm.
                observe("ecu-babbler", _NETWORK)
                can.add_frames("ecu-babbler", 8 if resilient else 24)
            drop = fires_after_retries(FRAME_DROP, "zonal-can", t)
            flip = fires_after_retries(BIT_FLIP, "zonal-can", t)
            if flip and resilient:
                observe("zonal-can", _NETWORK)
                secoc.add_mac_reject("zonal-can", t)
            ok = (not (babbler_active and not resilient)
                  and not drop and not flip)
            report("ivn", ok)

        if has_cloud:
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
            observe("telemetry-backend", _DATA)
            budget.add_status("telemetry-backend", status, round(latency_ms, 1))
            report("cloud", status == "ok")

        if has_ssi:
            down = fires(REGISTRY_DOWN, "did-registry", t)
            registry_down["down"] = down
            if resolver is not None:
                try:
                    resolver.resolve(did)
                    status = "stale" if down else "ok"
                except RegistryUnavailable:
                    status = "fail"
            else:
                status = "fail" if down else "ok"
            observe("did-registry", _PLATFORM)
            resolution.add_status("did-registry", status)
            report("ssi", status != "fail")

        engine.tick(t)
        manager.tick(t)

        if resilient and not floor_cleared and t >= window_end:
            manager.clear_response_floor()
            floor_cleared = True

    result = {
        **harness.entry(),
        "faults": {"injected": injector.count,
                   "byKind": injector.count_by_kind()},
        "sentinel": engine.to_dict(),
        "response": {"alerts": len(response.decisions),
                     "isolated": sorted(response.isolated_components())},
        "degradation": manager.to_dict(),
    }
    result["detection"] = detection(result)
    return result


def run_sentinel_campaign(scenarios: list[str], plan_name: str, *,
                          base_seed: int = 0,
                          duration: int = DEFAULT_DURATION) -> dict:
    """Run several scenarios under one plan; assemble the report doc."""
    return campaign_document(run_sentinel_scenario, sentinel_summary,
                             version=SCHEMA_VERSION, tool=TOOL_NAME,
                             scenarios=scenarios, plan_name=plan_name,
                             base_seed=base_seed, duration=duration)
