"""The earlier sentinel campaign runner and engine tick, kept as an oracle.

:func:`repro.sentinel.run_sentinel_scenario` hands its telemetry to the
engine as typed records, and :meth:`SentinelEngine.tick` skips the work
that nothing changed.  The code they replaced lives on here, unchanged
apart from its names, as the slow path the fast one is checked against
(``tests/test_sentinel_oracle.py`` and ``tests/test_sentinel_typed.py``):

* :func:`reference_run` formats every telemetry record as a
  :class:`~repro.obs.events.SimEvent` into a live
  :class:`~repro.obs.events.EventLog` that pushes it into the engine
  (``attach`` and ``on_event``), and rebuilds the scenario's flow graph
  and correlator on every run;
* :class:`ReferenceEngine` ticks the earlier way: it flushes every
  detector, quiets every untriggered machine, closes incidents by
  rebuilding the alarmed and tracked source sets, and sorts a fresh set
  union of trust sources on every tick;
* :func:`reference_update` and :func:`reference_decay` are the earlier
  trust-score arithmetic, which fused even an empty risk map.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from repro.core.layers import Layer
from repro.core.response import ResponseEngine
from repro.core.rng import python_rng
from repro.faults.harness import fault_window as _scenario_window
from repro.faults.degradation import DegradationManager, ServiceLevel
from repro.faults.injector import FaultInjector
from repro.faults.plan import DEFAULT_DURATION, FaultKind, FaultPlan
from repro.faults.resilience import CircuitBreaker, VirtualClock
from repro.flow.graph import build_flow_graph
from repro.lint.scenarios import get_scenario
from repro.obs.events import EventKind, EventLog
from repro.sentinel.alarms import AlarmMachine, AlarmState, AlarmTransition
from repro.sentinel.correlator import CascadeCorrelator
from repro.sentinel.engine import MACHINE_PARAMS, SentinelEngine
from repro.sentinel.trust import TrustEvent, TrustPhase, TrustScore
from repro.ssi.did import Did, DidDocument, KeyPair
from repro.ssi.registry import (
    CachingResolver,
    RegistryUnavailable,
    VerifiableDataRegistry,
)


def reference_after_move(score: TrustScore, t: float) -> list[TrustEvent]:
    events: list[TrustEvent] = []
    score.min_score = min(score.min_score, score.score)
    if score.collapsed_t is None and score.score < score.collapse_threshold:
        score.collapsed_t = t
        events.append(TrustEvent(t, score.source, "collapse",
                                 score.phase, score.score))
    next_phase = score.phase
    if score.phase is TrustPhase.COLD_START:
        if score.observations >= score.cold_start_obs:
            next_phase = TrustPhase.VERIFYING
    elif score.phase is TrustPhase.VERIFYING:
        if score.score >= score.trusted_at:
            next_phase = TrustPhase.TRUSTED
    elif score.score < score.trusted_exit:
        next_phase = TrustPhase.VERIFYING
    if next_phase is not score.phase:
        score.phase = next_phase
        events.append(TrustEvent(t, score.source, "phase",
                                 next_phase, score.score))
    return events


def reference_update(score: TrustScore, t: float, risks: dict[str, float],
                     hard: bool, weights: dict[str, float]) -> list[TrustEvent]:
    score.observations += 1
    fused = score.fuse(risks, hard, weights)
    if score.phase is TrustPhase.COLD_START:
        fused = min(1.0, fused * score.cold_start_gain)
    elif score.phase is TrustPhase.TRUSTED and fused <= score.noise_floor:
        fused = 0.0
    score.score = (1.0 - score.alpha) * score.score + score.alpha * (1.0 - fused)
    if hard:
        score.hard_hits += 1
        score.score = min(score.score, score.hard_crash)
    return reference_after_move(score, t)


def reference_decay(score: TrustScore, t: float) -> list[TrustEvent]:
    if score.score > score.ambient:
        score.score = score.score - score.decay_rate * (score.score - score.ambient)
    return reference_after_move(score, t)


class ReferenceEngine(SentinelEngine):
    """:class:`SentinelEngine` with the earlier, change-blind tick."""

    def tick(self, t: float) -> list[AlarmTransition]:
        signals = [signal for detector in self.detectors
                   for signal in detector.flush(t)]

        by_source: dict[str, dict[str, float]] = {}
        hard_sources: set[str] = set()
        triggered: set[tuple[str, str]] = set()
        transitions: list[AlarmTransition] = []

        for signal in signals:
            by_source.setdefault(signal.source, {})[signal.detector] = signal.risk
            if signal.hard:
                hard_sources.add(signal.source)
            if signal.risk < self.trigger_floor and not signal.hard:
                continue
            key = (signal.source, signal.detector)
            machine = self.machines.get(key)
            if machine is None:
                suspect, alarm, clear = MACHINE_PARAMS.get(
                    signal.detector, (2, 4, 4.0))
                machine = self.machines[key] = AlarmMachine(
                    signal.source, signal.detector, suspect_after=suspect,
                    alarm_after=alarm, clear_after_s=clear)
            triggered.add(key)
            transition = machine.trigger(signal)
            if transition is not None:
                transitions.append(transition)
                self._emit_transition(transition)
                if transition.state is AlarmState.ALARM:
                    self._on_alarm(transition, signal)

        for key, machine in self.machines.items():
            if key not in triggered:
                transition = machine.quiet(t)
                if transition is not None:
                    transitions.append(transition)
                    self._emit_transition(transition)

        alarmed = {source for (source, _), machine in self.machines.items()
                   if machine.state is AlarmState.ALARM}
        tracked = {source for (source, _) in self.machines}
        for incident in self.correlator.on_all_clear(t, tracked - alarmed):
            self._emit(EventKind.INCIDENT, "sentinel", t,
                       "incident #{} closed", (incident.incident_id,),
                       incident=incident.incident_id, action="closed",
                       sources=len(incident.sources))

        for source in sorted(self._seen | set(by_source)):
            risks = by_source.get(source, {})
            self._emit_trust(reference_update(
                self.trust.get(source), t, risks, source in hard_sources,
                self.trust.weights))
        seen = self._seen | set(by_source)
        for name in sorted(self.trust.sources()):
            if name not in seen:
                self._emit_trust(reference_decay(self.trust.get(name), t))
        self._seen.clear()
        return transitions


def reference_run(name: str, plan: FaultPlan, *, base_seed: int = 0,
                  duration: int = DEFAULT_DURATION) -> dict:
    """The earlier ``run_sentinel_scenario``: telemetry through a live log."""
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
    correlator = CascadeCorrelator.from_flow_graph(
        build_flow_graph(scenario.build()), scenario.anchors)
    engine = ReferenceEngine(name, correlator=correlator, response=response)
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
                    rejected = True
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
