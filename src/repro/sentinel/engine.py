"""The streaming sentinel: telemetry in, alarms + trust + incidents out.

:class:`SentinelEngine` takes telemetry two ways, through one intake
(:meth:`SentinelEngine.observe` books the source, the detector gets the
record):

* **typed records** — a scenario runner (:mod:`repro.sentinel.campaign`)
  calls ``observe`` and the detectors' typed intake methods directly, so
  a campaign builds no message and no event per record;
* **a live log** — :meth:`SentinelEngine.attach` subscribes to an
  :class:`~repro.obs.events.EventLog` through its ``subscribe`` hook, so
  emission *pushes* each event into :meth:`SentinelEngine.on_event`,
  which decodes it into the same calls; nothing polls a buffer.

Either way the engine closes the paper's detect→respond loop:

1. each record is routed to the per-layer detectors (O(1) accumulation);
2. at every virtual-clock tick the detectors holding input flush risk
   signals, which drive the per-``(source, detector)`` alarm state
   machines and the per-source trust scores;
3. machines entering ALARM raise :class:`~repro.core.response.SecurityAlert`s
   into the attached :class:`~repro.core.response.ResponseEngine` (hard
   physics gates at CRITICAL, probabilistic alarms at WARNING), whose
   ``subscribe`` hook forwards each decision to the
   :class:`~repro.faults.degradation.DegradationManager`;
4. a trust score first dropping below its collapse threshold raises a
   CRITICAL trust-collapse alert — sustained distrust is actionable
   even when no single detector crossed its alarm bar;
5. the cascade correlator groups flow-adjacent alarms into incidents.

The engine's own decisions are typed ``ALARM_TRANSITION`` /
``TRUST_UPDATE`` / ``INCIDENT`` verdicts.  ``events_emitted`` counts
every verdict; only with a log attached is each one formatted and
written to that log, on the same timeline as the telemetry.  The engine
ignores those kinds on input (no feedback loops) and it ignores
``FAULT_INJECTED`` — the injector's ground truth would be an oracle a
deployed IDS does not have.
"""

from __future__ import annotations

from typing import Callable

from repro.core.layers import Layer
from repro.core.response import ResponseEngine, SecurityAlert, Severity
from repro.obs.events import EventKind, EventLog, FieldValue, SimEvent
from repro.sentinel.alarms import AlarmMachine, AlarmState, AlarmTransition
from repro.sentinel.correlator import CascadeCorrelator
from repro.sentinel.detectors import Detector, Signal, default_detectors
from repro.sentinel.trust import TrustEvent, TrustRegistry, TrustScore

__all__ = ["SentinelEngine", "MACHINE_PARAMS", "IGNORED_KINDS"]

#: Event kinds the engine must never consume: its own outputs, the
#: response/degradation plumbing it feeds, and the injector's oracle.
IGNORED_KINDS = frozenset({
    EventKind.ALARM_TRANSITION, EventKind.TRUST_UPDATE, EventKind.INCIDENT,
    EventKind.IDS_ALERT, EventKind.RESPONSE_ACTION,
    EventKind.DEGRADATION_CHANGE, EventKind.BREAKER_STATE,
    EventKind.FAULT_INJECTED,
})

#: Machine states that a quiet tick leaves as they are (with no streak).
_AT_REST = (AlarmState.IDLE, AlarmState.CLEARED)

#: Per-detector alarm-machine hysteresis: (suspect_after, alarm_after,
#: clear_after_s).  Cloud outages need a longer run than bus storms —
#: a breaker-contained blip must stay below ALARM while a sustained
#: outage must not.
MACHINE_PARAMS: dict[str, tuple[int, int, float]] = {
    "can-rate": (2, 4, 4.0),
    "secoc-auth": (2, 4, 6.0),
    "ranging-residual": (2, 4, 4.0),
    "cloud-budget": (2, 6, 4.0),
    "did-resolution": (2, 6, 4.0),
}


class SentinelEngine:
    """Streaming alarm + trust engine for one scenario."""

    def __init__(self, scenario: str, *,
                 detectors: list[Detector] | None = None,
                 correlator: CascadeCorrelator | None = None,
                 response: ResponseEngine | None = None,
                 trust: TrustRegistry | None = None,
                 trigger_floor: float = 0.3) -> None:
        self.scenario = scenario
        self.detectors = detectors if detectors is not None else default_detectors()
        self.correlator = correlator if correlator is not None else CascadeCorrelator()
        self.response = response
        self.trust = trust if trust is not None else TrustRegistry()
        self.trigger_floor = trigger_floor
        self.machines: dict[tuple[str, str], AlarmMachine] = {}
        self.events_consumed = 0
        self.events_emitted = 0
        self.first_alarm_t: float | None = None
        self.alarm_transitions = 0
        self._by_kind: dict[EventKind, list[Detector]] = {}
        for detector in self.detectors:
            for kind in detector.kinds:
                self._by_kind.setdefault(kind, []).append(detector)
        self._seen: set[str] = set()
        self._layer_of: dict[str, Layer] = {}
        self._alerted_collapse: set[str] = set()
        self._log: EventLog | None = None
        # The sorted trust-update order (with each source's score) for
        # the last distinct set of sources seen in a tick; the set of
        # telemetry sources rarely changes from one tick to the next.
        self._update_set: set[str] = set()
        self._update_order: list[tuple[str, TrustScore]] = []

    # -- wiring ---------------------------------------------------------------

    def attach(self, log: EventLog) -> Callable[[], None]:
        """Subscribe to a live event log; returns the unsubscribe hook.

        The engine also emits its own decisions into the same log (and
        ignores them on input), so one timeline carries telemetry and
        verdicts interleaved.
        """
        self._log = log
        return log.subscribe(self.on_event)

    # -- streaming input ------------------------------------------------------

    def observe(self, source: str, layer: Layer) -> None:
        """Book one telemetry record from ``source`` on ``layer``.

        Every record goes through here, whichever way it arrives: a
        scenario runner calls it beside each typed detector call, and
        :meth:`on_event` calls it for each pushed event a detector
        consumes.
        """
        self.events_consumed += 1
        self._seen.add(source)
        self._layer_of[source] = layer

    def on_event(self, event: SimEvent) -> None:
        """Consume one pushed event (kept O(1): route + accumulate)."""
        if event.kind in IGNORED_KINDS:
            return
        consumers = self._by_kind.get(event.kind)
        if not consumers:
            self.events_consumed += 1
            return
        self.observe(str(event.fields.get("sender", event.source)), event.layer)
        for detector in consumers:
            detector.on_event(event)

    # -- the tick -------------------------------------------------------------

    def tick(self, t: float) -> list[AlarmTransition]:
        """Flush detectors, advance machines/trust/incidents for tick ``t``."""
        signals = [signal for detector in self.detectors if detector.pending
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
                continue  # weak evidence feeds trust, not the alarm ladder
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
            # A machine at rest (IDLE or CLEARED, no streak) stays put.
            if key in triggered or (machine.streak == 0
                                    and machine.state in _AT_REST):
                continue
            transition = machine.quiet(t)
            if transition is not None:
                transitions.append(transition)
                self._emit_transition(transition)
        self._close_clear_incidents(t)

        # Trust: evidence for signalled sources, reinforcement for quiet
        # ones that reported telemetry, decay for the silent.
        seen = self._seen
        seen.update(by_source)
        if seen != self._update_set:
            self._update_set = set(seen)
            self._update_order = [(source, self.trust.get(source))
                                  for source in sorted(seen)]
        weights = self.trust.weights
        no_risks: dict[str, float] = {}
        for source, score in self._update_order:
            trust_events = score.update(t, by_source.get(source, no_risks),
                                        source in hard_sources,
                                        weights=weights)
            if trust_events:
                self._emit_trust(trust_events)
        trust_events = self.trust.decay_except(t, seen)
        if trust_events:
            self._emit_trust(trust_events)
        seen.clear()
        return transitions

    # -- alarm / incident / response plumbing ---------------------------------

    def _on_alarm(self, transition: AlarmTransition, signal: Signal) -> None:
        if self.first_alarm_t is None:
            self.first_alarm_t = transition.t
        incident, action = self.correlator.on_alarm(
            transition.t, transition.source, transition.detector)
        self._emit(EventKind.INCIDENT, transition.source, transition.t,
                   "incident #{} {} ({} source(s))",
                   (incident.incident_id, action, len(incident.sources)),
                   incident=incident.incident_id, action=action,
                   sources=len(incident.sources))
        if self.response is not None:
            severity = Severity.CRITICAL if signal.hard else Severity.WARNING
            self.response.handle(SecurityAlert(
                time=transition.t,
                layer=self._layer_of.get(transition.source,
                                         Layer.SYSTEM_OF_SYSTEMS),
                component=transition.source,
                attack_name=f"sentinel:{transition.detector}",
                severity=severity,
                confidence=max(0.5, min(1.0, signal.risk))))

    def _close_clear_incidents(self, t: float) -> None:
        if not self.correlator.open_count:
            return
        alarmed = {source for (source, _), machine in self.machines.items()
                   if machine.state is AlarmState.ALARM}
        tracked = {source for (source, _) in self.machines}
        cleared = tracked - alarmed
        for incident in self.correlator.on_all_clear(t, cleared):
            self._emit(EventKind.INCIDENT, "sentinel", t,
                       "incident #{} closed", (incident.incident_id,),
                       incident=incident.incident_id, action="closed",
                       sources=len(incident.sources))

    def _emit_trust(self, events: list[TrustEvent]) -> None:
        for trust_event in events:
            self._emit(EventKind.TRUST_UPDATE, trust_event.source,
                       trust_event.t, "trust {}: {} (score {:.2f})",
                       (trust_event.kind, trust_event.phase.value,
                        trust_event.score),
                       change=trust_event.kind,
                       phase=trust_event.phase.value,
                       score=round(trust_event.score, 4))
            if (trust_event.kind == "collapse" and self.response is not None
                    and trust_event.source not in self._alerted_collapse):
                self._alerted_collapse.add(trust_event.source)
                self.response.handle(SecurityAlert(
                    time=trust_event.t,
                    layer=self._layer_of.get(trust_event.source,
                                             Layer.SYSTEM_OF_SYSTEMS),
                    component=trust_event.source,
                    attack_name="sentinel:trust-collapse",
                    severity=Severity.CRITICAL,
                    confidence=max(0.5, min(1.0, 1.0 - trust_event.score))))

    def _emit_transition(self, transition: AlarmTransition) -> None:
        self.alarm_transitions += 1
        self._emit(EventKind.ALARM_TRANSITION, transition.source,
                   transition.t, "{} -> {} ({})",
                   (transition.detector, transition.state.value,
                    transition.reason),
                   detector=transition.detector,
                   state=transition.state.value,
                   risk=round(transition.risk, 4))

    def _emit(self, kind: EventKind, source: str, t: float, template: str,
              args: tuple, **fields: FieldValue) -> None:
        """Count one verdict; format and log it only if a log is attached."""
        self.events_emitted += 1
        if self._log is not None:
            layer = self._layer_of.get(source, Layer.SYSTEM_OF_SYSTEMS)
            self._log.emit(kind, layer, source, template.format(*args),
                           t=t, **fields)

    # -- reporting ------------------------------------------------------------

    def alarmed_sources(self) -> list[str]:
        return sorted({machine.source for machine in self.machines.values()
                       if machine.first_alarm_t is not None})

    def to_dict(self) -> dict:
        machines = [self.machines[key].to_dict()
                    for key in sorted(self.machines)]
        return {
            "eventsConsumed": self.events_consumed,
            "eventsEmitted": self.events_emitted,
            "firstAlarmT": self.first_alarm_t,
            "alarmTransitions": self.alarm_transitions,
            "alarmedSources": self.alarmed_sources(),
            "machines": machines,
            "incidents": self.correlator.to_dict(),
            "trust": self.trust.to_dict(),
        }
