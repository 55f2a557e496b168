"""Tests for the multi-layer intrusion response engine."""

import pytest

from repro.core.layers import Layer
from repro.core.response import (
    ResponseAction,
    ResponseEngine,
    SecurityAlert,
    Severity,
)


def alert(component="ecu", severity=Severity.WARNING, confidence=1.0, t=0.0):
    return SecurityAlert(t, Layer.NETWORK, component, "can-masquerade", severity, confidence)


class TestBasePolicy:
    def test_info_logs_only(self):
        engine = ResponseEngine()
        assert engine.handle(alert(severity=Severity.INFO)).action == ResponseAction.LOG_ONLY

    def test_warning_rate_limits(self):
        engine = ResponseEngine()
        assert engine.handle(alert(severity=Severity.WARNING)).action == ResponseAction.RATE_LIMIT

    def test_critical_isolates(self):
        engine = ResponseEngine()
        decision = engine.handle(alert(severity=Severity.CRITICAL))
        assert decision.action == ResponseAction.ISOLATE_COMPONENT

    def test_critical_component_hardens_response(self):
        engine = ResponseEngine(critical_components={"brake-ecu"})
        decision = engine.handle(alert(component="brake-ecu", severity=Severity.CRITICAL))
        assert decision.action == ResponseAction.DEGRADE_FUNCTION


class TestEscalation:
    def test_repeat_alerts_escalate(self):
        engine = ResponseEngine(escalation_threshold=2)
        actions = [engine.handle(alert()).action for _ in range(6)]
        assert actions[0] == ResponseAction.RATE_LIMIT
        assert actions[-1] > actions[0]

    def test_escalation_caps_at_safe_stop(self):
        engine = ResponseEngine(escalation_threshold=1)
        last = None
        for _ in range(20):
            last = engine.handle(alert(severity=Severity.CRITICAL)).action
        assert last == ResponseAction.SAFE_STOP

    def test_never_deescalates(self):
        engine = ResponseEngine(escalation_threshold=1)
        engine.handle(alert(severity=Severity.CRITICAL))
        engine.handle(alert(severity=Severity.CRITICAL))
        strong = engine.component_status("ecu")
        # A later low-severity alert must not weaken the applied response.
        engine.handle(alert(severity=Severity.INFO))
        assert engine.component_status("ecu") >= strong

    def test_per_component_state_is_independent(self):
        engine = ResponseEngine(escalation_threshold=1)
        for _ in range(5):
            engine.handle(alert(component="ecu-a", severity=Severity.CRITICAL))
        decision = engine.handle(alert(component="ecu-b", severity=Severity.WARNING))
        assert decision.action == ResponseAction.RATE_LIMIT


class TestConfidenceGating:
    def test_low_confidence_only_logs(self):
        engine = ResponseEngine(min_confidence=0.8)
        decision = engine.handle(alert(severity=Severity.CRITICAL, confidence=0.3))
        assert decision.action == ResponseAction.LOG_ONLY

    def test_low_confidence_does_not_escalate(self):
        engine = ResponseEngine(min_confidence=0.8, escalation_threshold=1)
        for _ in range(5):
            engine.handle(alert(severity=Severity.CRITICAL, confidence=0.3))
        decision = engine.handle(alert(severity=Severity.CRITICAL, confidence=0.9))
        assert decision.escalation_level == 0

    def test_confidence_validation(self):
        with pytest.raises(ValueError):
            alert(confidence=1.5)


class TestStatusQueries:
    def test_isolated_components(self):
        engine = ResponseEngine()
        engine.handle(alert(component="infected", severity=Severity.CRITICAL))
        engine.handle(alert(component="healthy", severity=Severity.INFO))
        assert engine.isolated_components() == {"infected"}

    def test_reset_clears_state(self):
        engine = ResponseEngine()
        engine.handle(alert(component="ecu", severity=Severity.CRITICAL))
        engine.reset("ecu")
        assert engine.component_status("ecu") == ResponseAction.LOG_ONLY

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            ResponseEngine(escalation_threshold=0)


class TestSubscriptionAndFlapping:
    """Listeners hear every decision; flapping alerts cannot oscillate
    the degradation ladder (the hysteresis contract repro.faults relies on)."""

    def test_subscribers_hear_every_decision_in_order(self):
        engine = ResponseEngine()
        heard = []
        engine.subscribe(lambda decision: heard.append(decision.action))
        engine.handle(alert(severity=Severity.INFO))
        engine.handle(alert(severity=Severity.CRITICAL))
        assert heard == [ResponseAction.LOG_ONLY,
                         ResponseAction.ISOLATE_COMPONENT]

    def test_low_confidence_decisions_still_reach_subscribers(self):
        engine = ResponseEngine(min_confidence=0.8)
        heard = []
        engine.subscribe(lambda decision: heard.append(decision.action))
        engine.handle(alert(severity=Severity.CRITICAL, confidence=0.2))
        assert heard == [ResponseAction.LOG_ONLY]

    def test_flapping_alerts_never_deescalate_the_response(self):
        # alert, quiet, alert, ... — the chosen action must be monotone
        # even though severities alternate
        engine = ResponseEngine(escalation_threshold=2)
        actions = []
        for i in range(8):
            severity = Severity.CRITICAL if i % 2 == 0 else Severity.INFO
            actions.append(engine.handle(alert(severity=severity,
                                               t=float(i))).action)
        assert actions == sorted(actions)  # monotone non-decreasing
        assert actions[0] == ResponseAction.ISOLATE_COMPONENT

    def test_flapping_alerts_cannot_oscillate_the_degradation_ladder(self):
        # end-to-end hysteresis: a flapping IDS (critical alert, then
        # healthy ticks, repeatedly) may hold the vehicle DEGRADED but
        # must never walk it below the action's floor
        from repro.faults.degradation import DegradationManager, ServiceLevel

        engine = ResponseEngine(escalation_threshold=100)
        manager = DegradationManager(degrade_streak=2, recovery_streak=2)
        manager.attach(engine)
        for cycle in range(6):
            engine.handle(alert(severity=Severity.CRITICAL,
                                t=float(cycle * 3)))
            for sub in range(3):
                manager.report("ivn", True)
                manager.tick(float(cycle * 3 + sub))
        assert manager.level is ServiceLevel.DEGRADED
        assert manager.min_level is ServiceLevel.DEGRADED
        # once the flapping source is cleared, recovery completes
        manager.clear_response_floor()
        for t in range(20, 23):
            manager.report("ivn", True)
            manager.tick(float(t))
        assert manager.level is ServiceLevel.FULL
