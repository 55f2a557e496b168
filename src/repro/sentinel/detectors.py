"""Per-layer threshold detectors: typed telemetry in, risk signals out.

Each detector takes its telemetry through typed intake methods
(``add_frames``, ``add_residual``, ``add_status``, ...) — called
directly by a scenario runner, or by :meth:`Detector.on_event`, which
decodes a live :class:`~repro.obs.events.SimEvent` of a kind the
detector understands into the same call — and, at each virtual-clock
tick boundary, flushes zero or more :class:`Signal` records — one per
suspicious source.  ``pending`` tells the engine whether a flush could
say anything: a detector holding no input since its last flush is
skipped.  A signal carries a probabilistic ``risk`` in
``[0, 1]`` and a ``hard`` flag for the non-negotiable physics gates
(impossible early arrival, saturated bus, blown availability budget):
hard signals bypass the alarm hysteresis entirely.

Detectors never see ground truth: they judge the same operational
telemetry — frame rates, auth failures, ranging residuals, request
statuses — a real onboard IDS would, and the fault injector's own
``FAULT_INJECTED`` bookkeeping events are filtered out upstream.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.obs.events import EventKind, SimEvent

__all__ = ["Signal", "Detector", "CanRateDetector", "SecocAuthDetector",
           "RangingResidualDetector", "CloudBudgetDetector",
           "DidResolutionDetector", "default_detectors"]


@dataclass(frozen=True)
class Signal:
    """One tick's verdict about one source, from one detector."""

    t: float
    source: str
    detector: str
    risk: float
    hard: bool
    reason: str

    def __post_init__(self) -> None:
        if not 0.0 <= self.risk <= 1.0:
            raise ValueError("risk must be in [0, 1]")


class Detector:
    """Base class: accumulate telemetry, flush signals at tick boundaries.

    ``pending`` is ``True`` while the detector holds input it has not
    flushed.  The base class leaves it ``True`` for good, so a detector
    that does not track its input is flushed on every tick.
    """

    name: str = "detector"
    kinds: tuple[EventKind, ...] = ()
    pending: bool = True

    def on_event(self, event: SimEvent) -> None:  # pragma: no cover
        raise NotImplementedError

    def flush(self, t: float) -> list[Signal]:  # pragma: no cover
        raise NotImplementedError


class CanRateDetector(Detector):
    """CAN frame-rate storms and bus-off storms.

    Frame counts arrive as ``FRAME_SENT`` events (a ``frames`` field
    batches one sender's tick, defaulting to 1 per event); a sender
    past ``suspect_rate`` frames/tick is suspicious, past ``hard_rate``
    the bus is physically saturated — a babbling-idiot signature no
    schedulable workload produces, so it is a hard gate.  ``BUS_OFF``
    events count separately: ``bus_off_hard`` of them in one tick is a
    bus-off storm (hard).
    """

    name = "can-rate"
    kinds = (EventKind.FRAME_SENT, EventKind.BUS_OFF)

    def __init__(self, *, suspect_rate: int = 8, alarm_rate: int = 12,
                 hard_rate: int = 16, bus_off_hard: int = 3) -> None:
        self.suspect_rate = suspect_rate
        self.alarm_rate = alarm_rate
        self.hard_rate = hard_rate
        self.bus_off_hard = bus_off_hard
        self._frames: dict[str, int] = {}
        self._bus_off: dict[str, int] = {}
        self.pending = False

    def add_frames(self, sender: str, frames: int) -> None:
        """``frames`` frames sent by ``sender`` this tick."""
        self._frames[sender] = self._frames.get(sender, 0) + frames
        self.pending = True

    def add_bus_off(self, source: str) -> None:
        """One bus-off event on ``source`` this tick."""
        self._bus_off[source] = self._bus_off.get(source, 0) + 1
        self.pending = True

    def on_event(self, event: SimEvent) -> None:
        if event.kind is EventKind.BUS_OFF:
            self.add_bus_off(event.source)
            return
        self.add_frames(str(event.fields.get("sender", event.source)),
                        int(event.fields.get("frames", 1)))

    def flush(self, t: float) -> list[Signal]:
        self.pending = False
        signals = []
        for sender, rate in sorted(self._frames.items()):
            if rate >= self.suspect_rate:
                signals.append(Signal(
                    t, sender, self.name,
                    min(1.0, rate / self.alarm_rate), rate >= self.hard_rate,
                    f"{rate} frames/tick"
                    + (" saturates the bus" if rate >= self.hard_rate else "")))
        for source, count in sorted(self._bus_off.items()):
            if count >= self.bus_off_hard:
                signals.append(Signal(t, source, self.name, 1.0, True,
                                      f"bus-off storm: {count} in one tick"))
        self._frames.clear()
        self._bus_off.clear()
        return signals


class SecocAuthDetector(Detector):
    """SecOC authentication-failure bursts (``MAC_REJECTED``).

    Signals only on ticks that actually saw a rejection, scoring the
    windowed burst size — an isolated flipped bit is line noise, a
    burst is a forgery attempt.  ``hard_burst`` rejects in the window
    is a hard gate.
    """

    name = "secoc-auth"
    kinds = (EventKind.MAC_REJECTED,)

    def __init__(self, *, window_s: float = 6.0, suspect_burst: int = 2,
                 alarm_burst: int = 4, hard_burst: int = 6) -> None:
        self.window_s = window_s
        self.suspect_burst = suspect_burst
        self.alarm_burst = alarm_burst
        self.hard_burst = hard_burst
        self._rejects: dict[str, deque[float]] = {}
        self._this_tick: set[str] = set()
        self.pending = False

    def add_mac_reject(self, source: str, t: float) -> None:
        """One MAC verification failure on ``source`` at ``t``."""
        self._rejects.setdefault(source, deque()).append(t)
        self._this_tick.add(source)
        self.pending = True

    def on_event(self, event: SimEvent) -> None:
        self.add_mac_reject(event.source, event.t)

    def flush(self, t: float) -> list[Signal]:
        self.pending = False
        signals = []
        for source in sorted(self._this_tick):
            window = self._rejects[source]
            while window and window[0] <= t - self.window_s:
                window.popleft()
            burst = len(window)
            if burst >= self.suspect_burst:
                signals.append(Signal(
                    t, source, self.name, min(1.0, burst / self.alarm_burst),
                    burst >= self.hard_burst,
                    f"{burst} auth failures in {self.window_s:g}s"))
        self._this_tick.clear()
        return signals


class RangingResidualDetector(Detector):
    """UWB ranging residual outliers and impossible ToA geometry.

    ``RANGING`` events carry ``residual_m`` — the innovation against
    the tracked estimate.  Large positive residuals (late arrivals,
    NLOS, corruption) are probabilistic; a residual at or below
    ``-hard_early_m`` claims the signal arrived *earlier* than the
    geometry allows — the Cicada/relay signature — and is a hard gate,
    because distance-reduction is physically impossible without attack.
    A ``rejected`` field marks samples a secure receiver discarded:
    soft evidence at ``reject_risk``.
    """

    name = "ranging-residual"
    kinds = (EventKind.RANGING,)

    def __init__(self, *, suspect_residual_m: float = 0.5,
                 alarm_residual_m: float = 1.5, hard_early_m: float = 2.0,
                 reject_risk: float = 0.5) -> None:
        self.suspect_residual_m = suspect_residual_m
        self.alarm_residual_m = alarm_residual_m
        self.hard_early_m = hard_early_m
        self.reject_risk = reject_risk
        self._worst: dict[str, float] = {}     # max |residual| this tick
        self._earliest: dict[str, float] = {}  # most negative residual
        self._rejected: set[str] = set()
        self.pending = False

    def add_residual(self, source: str, residual_m: float) -> None:
        """One accepted sample's residual (metres) from ``source``."""
        self._worst[source] = max(self._worst.get(source, 0.0), abs(residual_m))
        self._earliest[source] = min(self._earliest.get(source, 0.0),
                                     residual_m)
        self.pending = True

    def add_reject(self, source: str) -> None:
        """One sample from ``source`` that a secure receiver discarded."""
        self._rejected.add(source)
        self.pending = True

    def on_event(self, event: SimEvent) -> None:
        if event.fields.get("rejected"):
            self.add_reject(event.source)
            return
        residual = event.fields.get("residual_m")
        if residual is None:
            measured = event.fields.get("measured_m")
            true = event.fields.get("true_m")
            if measured is None or true is None:
                return
            residual = float(measured) - float(true)
        self.add_residual(event.source, float(residual))

    def flush(self, t: float) -> list[Signal]:
        self.pending = False
        signals = []
        for source in sorted(set(self._worst) | self._rejected):
            worst = self._worst.get(source, 0.0)
            earliest = self._earliest.get(source, 0.0)
            if earliest <= -self.hard_early_m:
                signals.append(Signal(
                    t, source, self.name, 1.0, True,
                    f"impossible ToA geometry: {earliest:.2f} m early"))
            elif worst >= self.suspect_residual_m:
                signals.append(Signal(
                    t, source, self.name,
                    min(1.0, worst / self.alarm_residual_m), False,
                    f"residual outlier: {worst:.2f} m"))
            elif source in self._rejected:
                signals.append(Signal(
                    t, source, self.name, self.reject_risk, False,
                    "secure ranging rejected sample(s)"))
        self._worst.clear()
        self._earliest.clear()
        self._rejected.clear()
        return signals


class CloudBudgetDetector(Detector):
    """Cloud 5xx/timeout/latency budgets (``CLOUD_REQUEST``).

    A tick is *unavailable* when the service returned 5xx/timeout,
    shed load (breaker open), or blew the latency budget.  Signals fire
    on unavailable ticks with risk scored over the window; a run of
    ``hard_raw_streak`` consecutive ticks with *raw* failures (5xx or
    timeout, not deliberate shedding) means no client-side machinery
    is containing the outage — the availability budget is blown (hard).
    """

    name = "cloud-budget"
    kinds = (EventKind.CLOUD_REQUEST,)

    def __init__(self, *, window_s: float = 6.0, alarm_fails: int = 4,
                 budget_ms: float = 250.0, hard_raw_streak: int = 4,
                 floor_risk: float = 0.3) -> None:
        self.window_s = window_s
        self.alarm_fails = alarm_fails
        self.budget_ms = budget_ms
        self.hard_raw_streak = hard_raw_streak
        self.floor_risk = floor_risk
        self._fail_window: dict[str, deque[float]] = {}
        self._raw_streak: dict[str, int] = {}
        self._tick_status: dict[str, list[str]] = {}
        self.pending = False

    def add_status(self, source: str, status: str, latency_ms: float) -> None:
        """One request to ``source``: its status and latency."""
        if status == "ok" and latency_ms > self.budget_ms:
            status = "slow"
        self._tick_status.setdefault(source, []).append(status)
        self.pending = True

    def on_event(self, event: SimEvent) -> None:
        self.add_status(event.source, str(event.fields.get("status", "ok")),
                        float(event.fields.get("latency_ms", 0.0)))

    def flush(self, t: float) -> list[Signal]:
        self.pending = False
        signals = []
        for source, statuses in sorted(self._tick_status.items()):
            raw = "5xx" in statuses or "timeout" in statuses
            unavailable = raw or "shed" in statuses or "slow" in statuses
            self._raw_streak[source] = (
                self._raw_streak.get(source, 0) + 1 if raw else 0)
            window = self._fail_window.setdefault(source, deque())
            if unavailable:
                window.append(t)
            while window and window[0] <= t - self.window_s:
                window.popleft()
            if unavailable:
                streak = self._raw_streak[source]
                hard = streak >= self.hard_raw_streak
                risk = (1.0 if hard else
                        max(self.floor_risk,
                            min(1.0, len(window) / self.alarm_fails)))
                reason = (f"availability budget blown: {streak} consecutive "
                          f"raw failures" if hard else
                          f"{len(window)} degraded tick(s) in {self.window_s:g}s")
                signals.append(Signal(t, source, self.name, risk, hard, reason))
        self._tick_status.clear()
        return signals


class DidResolutionDetector(Detector):
    """DID resolution failures (``DID_RESOLUTION``).

    Outright failures (registry down, nothing cached) signal with risk
    growing over the windowed failure count.  *Stale* resolutions — a
    cache serving last-known-good during an outage — are the resilience
    machinery working as designed: weak evidence only (risk below the
    engine's trigger floor feeds trust, not the alarm ladder).
    """

    name = "did-resolution"
    kinds = (EventKind.DID_RESOLUTION,)

    def __init__(self, *, window_s: float = 6.0, alarm_fails: int = 3,
                 stale_risk: float = 0.2) -> None:
        self.window_s = window_s
        self.alarm_fails = alarm_fails
        self.stale_risk = stale_risk
        self._fail_window: dict[str, deque[float]] = {}
        self._tick_status: dict[str, list[str]] = {}
        self.pending = False

    def add_status(self, source: str, status: str) -> None:
        """One resolution against ``source``: ``ok``, ``stale`` or ``fail``."""
        self._tick_status.setdefault(source, []).append(status)
        self.pending = True

    def on_event(self, event: SimEvent) -> None:
        self.add_status(event.source, str(event.fields.get("status", "ok")))

    def flush(self, t: float) -> list[Signal]:
        self.pending = False
        signals = []
        for source, statuses in sorted(self._tick_status.items()):
            failed = "fail" in statuses
            window = self._fail_window.setdefault(source, deque())
            if failed:
                window.append(t)
            while window and window[0] <= t - self.window_s:
                window.popleft()
            if failed:
                signals.append(Signal(
                    t, source, self.name,
                    min(1.0, len(window) / self.alarm_fails), False,
                    f"{len(window)} resolution failure(s) in "
                    f"{self.window_s:g}s"))
            elif "stale" in statuses:
                signals.append(Signal(t, source, self.name, self.stale_risk,
                                      False, "serving stale DID document"))
        self._tick_status.clear()
        return signals


def default_detectors() -> list[Detector]:
    """One of each per-layer detector, default thresholds."""
    return [CanRateDetector(), SecocAuthDetector(), RangingResidualDetector(),
            CloudBudgetDetector(), DidResolutionDetector()]
