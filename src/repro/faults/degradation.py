"""Graceful degradation: the FULL → DEGRADED → MINIMAL_RISK → SAFE_STOP ladder.

The paper's fail-operational requirement (§VIII) is that an autonomous
vehicle under attack or partial failure sheds non-critical function
instead of crashing: keep driving with degraded comfort features, fall
back to a minimal-risk maneuver when perception or networking is
compromised, and only as a last resort execute a safe stop.
:class:`DegradationManager` is that ladder as an explicit state
machine driven by two signal sources:

* **health signals** — per-component pass/fail reports (bus delivery,
  ranging sanity, cloud reachability), each component's last
  :data:`HEALTH_WINDOW` reports kept as its health window;
* **response escalations** — :class:`~repro.core.response.ResponseEngine`
  decisions, subscribed via ``ResponseEngine.subscribe``, so an
  intrusion-response ``DEGRADE_FUNCTION`` or ``SAFE_STOP`` decision
  forces the corresponding service level.

Recovery is *hysteretic*: one level is regained only after
``recovery_streak`` consecutive healthy ticks, so a flapping component
(alert, quiet, alert, ...) cannot oscillate the vehicle between levels.
SAFE_STOP latches — a stopped vehicle needs operator/forensic
clearance, not a lucky healthy window.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import IntEnum

from repro.core.layers import Layer
from repro.core.response import ResponseAction, ResponseDecision, ResponseEngine
from repro.obs.events import EventKind
from repro.obs.runtime import OBS

__all__ = ["ServiceLevel", "LevelChange", "DegradationManager", "HEALTH_WINDOW"]

#: How many of a component's most recent health reports its failure
#: fraction is taken over.
HEALTH_WINDOW = 8


class ServiceLevel(IntEnum):
    """The degradation ladder, ordered by remaining capability."""

    SAFE_STOP = 0      # vehicle halted; only safety systems live
    MINIMAL_RISK = 1   # minimal-risk maneuver; mission aborted
    DEGRADED = 2       # mission continues without non-critical function
    FULL = 3           # everything nominal


#: Response actions that force a service level when the engine fires them.
_ACTION_FLOOR: dict[ResponseAction, "ServiceLevel"] = {
    ResponseAction.ISOLATE_COMPONENT: ServiceLevel.DEGRADED,
    ResponseAction.DEGRADE_FUNCTION: ServiceLevel.MINIMAL_RISK,
    ResponseAction.SAFE_STOP: ServiceLevel.SAFE_STOP,
}


@dataclass(frozen=True)
class LevelChange:
    """One recorded transition on the ladder."""

    t: float
    level: ServiceLevel
    reason: str

    def to_dict(self) -> dict:
        return {"t": self.t, "level": self.level.name.lower(),
                "reason": self.reason}


class DegradationManager:
    """Drive the service level from health signals and response decisions.

    Args:
        degrade_threshold: failure fraction over a component's window at
            or above which the component counts as *unhealthy* this tick.
        degrade_streak: consecutive unhealthy ticks required to step
            *down* one level (downward hysteresis — a single noisy tick
            must not shed function).
        recovery_streak: consecutive fully-healthy ticks required to
            climb one level (upward hysteresis).
        allow_recovery: unhardened scenarios set this ``False`` — they
            have no recovery machinery, so levels only ratchet down.
    """

    def __init__(self, *, degrade_threshold: float = 0.5,
                 degrade_streak: int = 1,
                 recovery_streak: int = 3,
                 allow_recovery: bool = True) -> None:
        if not 0.0 < degrade_threshold <= 1.0:
            raise ValueError("degrade_threshold must be in (0, 1]")
        if degrade_streak < 1 or recovery_streak < 1:
            raise ValueError("streaks must be >= 1")
        self.degrade_threshold = degrade_threshold
        self.degrade_streak = degrade_streak
        self.recovery_streak = recovery_streak
        self.allow_recovery = allow_recovery
        self.level = ServiceLevel.FULL
        self.changes: list[LevelChange] = []
        self._healthy_streak = 0
        self._unhealthy_streak = 0
        self._response_floor = ServiceLevel.FULL
        self._now = 0.0
        self._health: dict[str, deque[bool]] = {}

    # -- signal sources ------------------------------------------------------

    def attach(self, engine: ResponseEngine) -> None:
        """Subscribe to a response engine's escalation decisions."""
        engine.subscribe(self._on_decision)

    def _on_decision(self, decision: ResponseDecision) -> None:
        floor = _ACTION_FLOOR.get(decision.action)
        if floor is None:
            return
        if floor < self._response_floor:
            self._response_floor = floor
        if floor < self.level:
            self._set_level(floor, decision.alert.time,
                            f"response {decision.action.name.lower()} "
                            f"on {decision.alert.component}")

    def report(self, component: str, ok: bool) -> None:
        """Add one health observation to ``component``'s window."""
        window = self._health.get(component)
        if window is None:
            window = self._health[component] = deque(maxlen=HEALTH_WINDOW)
        window.append(ok)

    # -- the tick ------------------------------------------------------------

    def tick(self, t: float) -> ServiceLevel:
        """Advance the ladder one virtual-clock tick.

        ``degrade_streak`` consecutive ticks with an unhealthy component
        (windowed failure fraction at or above the threshold) step the
        level down once; ``recovery_streak`` consecutive fully-healthy
        ticks climb one level — never above any floor a response
        decision has imposed.
        """
        self._now = t
        # A component is unhealthy only while it is *currently* failing
        # AND its windowed failure fraction is past the threshold — the
        # window alone would keep degrading a service for ticks after an
        # outage ended, purely on stale history.
        unhealthy = [
            component for component, window in sorted(self._health.items())
            if window[-1] is False
            and window.count(False) / len(window) >= self.degrade_threshold]
        if unhealthy:
            self._healthy_streak = 0
            self._unhealthy_streak += 1
            if (self._unhealthy_streak >= self.degrade_streak
                    and self.level > ServiceLevel.SAFE_STOP):
                self._unhealthy_streak = 0
                target = ServiceLevel(self.level - 1)
                self._set_level(target, t,
                                f"unhealthy: {', '.join(unhealthy)}")
        else:
            self._unhealthy_streak = 0
            self._healthy_streak += 1
            if (self.allow_recovery
                    and self.level < ServiceLevel.FULL
                    and self.level > ServiceLevel.SAFE_STOP
                    and self._healthy_streak >= self.recovery_streak):
                self._healthy_streak = 0
                target = ServiceLevel(min(self.level + 1, self._response_floor))
                if target > self.level:
                    self._set_level(target, t,
                                    f"recovered ({self.recovery_streak} healthy ticks)")
        return self.level

    def clear_response_floor(self) -> None:
        """Lift the response-imposed floor (forensic clearance).

        Does not un-latch SAFE_STOP; it only allows recovery ticks to
        climb past a previously imposed floor.
        """
        self._response_floor = ServiceLevel.FULL

    def _set_level(self, level: ServiceLevel, t: float, reason: str) -> None:
        if level == self.level:
            return
        if self.level == ServiceLevel.SAFE_STOP:
            return  # latched: a stopped vehicle stays stopped
        self.level = level
        self.changes.append(LevelChange(t, level, reason))
        if OBS.enabled:
            OBS.count("faults.degradation.changes")
            OBS.gauge("faults.degradation.level", int(level))
            OBS.emit(EventKind.DEGRADATION_CHANGE, Layer.SYSTEM_OF_SYSTEMS,
                     "degradation-manager",
                     f"service level -> {level.name.lower()} ({reason})",
                     t=t, level=level.name.lower(), reason=reason)

    # -- reporting -----------------------------------------------------------

    @property
    def min_level(self) -> ServiceLevel:
        """The lowest level reached so far."""
        if not self.changes:
            return self.level
        return min(change.level for change in self.changes)

    def time_to_degrade(self) -> float | None:
        """Virtual time of the first step below FULL (``None`` if never)."""
        for change in self.changes:
            if change.level < ServiceLevel.FULL:
                return change.t
        return None

    def time_to_recover(self) -> float | None:
        """Virtual time FULL was regained after a degradation, if ever."""
        degraded_at = self.time_to_degrade()
        if degraded_at is None:
            return None
        for change in self.changes:
            if change.t > degraded_at and change.level == ServiceLevel.FULL:
                return change.t
        return None

    def to_dict(self) -> dict:
        return {
            "finalLevel": self.level.name.lower(),
            "minLevel": self.min_level.name.lower(),
            "changes": [change.to_dict() for change in self.changes],
            "timeToDegradeS": self.time_to_degrade(),
            "timeToRecoverS": self.time_to_recover(),
        }
