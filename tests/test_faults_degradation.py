"""The FULL -> DEGRADED -> MINIMAL_RISK -> SAFE_STOP ladder."""

import pytest

from repro.core.layers import Layer
from repro.core.response import ResponseEngine, SecurityAlert, Severity
from repro.faults.degradation import DegradationManager, ServiceLevel


def drive(manager, reports):
    """Feed one component's pass/fail sequence, ticking after each report."""
    for t, ok in enumerate(reports):
        manager.report("phy", ok)
        manager.tick(float(t))
    return manager.level


class TestHealthDrivenDegradation:
    def test_sustained_failure_steps_down_one_level(self):
        manager = DegradationManager(degrade_streak=1)
        assert drive(manager, [True, False]) is ServiceLevel.DEGRADED

    def test_degrade_streak_filters_single_noisy_ticks(self):
        # one bad tick surrounded by good ones never reaches the streak
        manager = DegradationManager(degrade_streak=2)
        assert drive(manager, [True, False, True, True]) is ServiceLevel.FULL
        # two consecutive bad ticks do
        fresh = DegradationManager(degrade_streak=2)
        assert drive(fresh, [False, False]) is ServiceLevel.DEGRADED

    def test_flapping_component_cannot_walk_the_ladder_down(self):
        manager = DegradationManager(degrade_streak=2, recovery_streak=2)
        level = drive(manager, [True, False] * 10)
        assert level is ServiceLevel.FULL

    def test_stale_window_history_does_not_keep_degrading(self):
        # After the failure burst ends, the windowed fraction stays high
        # for several ticks — but a *currently passing* component must not
        # ratchet the vehicle further down on stale history alone.
        manager = DegradationManager(degrade_streak=1, allow_recovery=False)
        drive(manager, [False, False, True, True, True, True])
        assert manager.level is ServiceLevel.MINIMAL_RISK  # two bad ticks
        assert manager.min_level is ServiceLevel.MINIMAL_RISK

    def test_recovery_requires_a_healthy_streak(self):
        manager = DegradationManager(degrade_streak=1, recovery_streak=3)
        drive(manager, [False, True, True])
        assert manager.level is ServiceLevel.DEGRADED  # streak not reached
        drive_from = DegradationManager(degrade_streak=1, recovery_streak=3)
        assert drive(drive_from,
                     [False, True, True, True]) is ServiceLevel.FULL
        assert drive_from.time_to_recover() == 3.0

    def test_unhardened_posture_never_recovers(self):
        manager = DegradationManager(degrade_streak=1, recovery_streak=1,
                                     allow_recovery=False)
        assert drive(manager, [False] + [True] * 10) is ServiceLevel.DEGRADED

    def test_safe_stop_latches(self):
        manager = DegradationManager(degrade_streak=1, recovery_streak=1)
        drive(manager, [False, False, False])
        assert manager.level is ServiceLevel.SAFE_STOP
        assert drive(manager, [True] * 10) is ServiceLevel.SAFE_STOP

    def test_validation(self):
        with pytest.raises(ValueError, match="degrade_threshold"):
            DegradationManager(degrade_threshold=0.0)
        with pytest.raises(ValueError, match="streaks"):
            DegradationManager(degrade_streak=0)


def critical_alert(t=1.0, component="ecu-babbler"):
    return SecurityAlert(time=t, layer=Layer.NETWORK, component=component,
                         attack_name="babbling-idiot",
                         severity=Severity.CRITICAL)


class TestResponseEngineCoupling:
    def test_isolate_decision_forces_degraded_immediately(self):
        manager = DegradationManager()
        engine = ResponseEngine()
        manager.attach(engine)
        engine.handle(critical_alert())
        assert manager.level is ServiceLevel.DEGRADED
        assert manager.changes[0].reason.startswith("response isolate")

    def test_recovery_is_capped_by_the_response_floor(self):
        manager = DegradationManager(recovery_streak=2)
        engine = ResponseEngine()
        manager.attach(engine)
        engine.handle(critical_alert())
        drive(manager, [True] * 6)
        assert manager.level is ServiceLevel.DEGRADED  # floor holds
        manager.clear_response_floor()
        drive(manager, [True, True])
        assert manager.level is ServiceLevel.FULL

    def test_escalated_safe_stop_latches_through_the_subscription(self):
        manager = DegradationManager()
        engine = ResponseEngine(escalation_threshold=1)
        manager.attach(engine)
        for t in range(3):  # isolate -> degrade-function -> safe-stop
            engine.handle(critical_alert(t=float(t)))
        assert manager.level is ServiceLevel.SAFE_STOP
        manager.clear_response_floor()
        drive(manager, [True] * 10)
        assert manager.level is ServiceLevel.SAFE_STOP


class TestReporting:
    def test_to_dict_shape_and_timings(self):
        manager = DegradationManager(degrade_streak=1, recovery_streak=1)
        drive(manager, [True, False, True])
        doc = manager.to_dict()
        assert set(doc) == {"finalLevel", "minLevel", "changes",
                            "timeToDegradeS", "timeToRecoverS"}
        assert doc["finalLevel"] == "full" and doc["minLevel"] == "degraded"
        assert doc["timeToDegradeS"] == 1.0
        assert doc["timeToRecoverS"] == 2.0
        assert [c["level"] for c in doc["changes"]] == ["degraded", "full"]
