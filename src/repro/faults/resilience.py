"""Resilience primitives: retry/backoff, circuit breakers, health windows.

Everything here runs on an explicit :class:`VirtualClock` — delays are
*modeled*, never slept — so a chaos campaign that retries thousands of
operations completes in milliseconds and replays byte-identically from
its seed.  The three primitives mirror the classic fail-operational
toolbox the paper's intrusion-response discussion presupposes:

* :func:`retry_with_backoff` — exponential backoff with deterministic
  jitter (drawn from a :mod:`repro.core.rng` stream) and a hard time
  budget, retrying only the exception classes the caller names, so
  permanent errors (access denied, not found) fail fast while transient
  ones (timeouts, outages) are absorbed;
* :class:`CircuitBreaker` — the closed/open/half-open state machine
  that stops hammering a dead dependency, with recovery probing after a
  cool-down;
* :class:`HealthMonitor` — windowed failure-fraction tracking, the
  signal the degradation manager subscribes to.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, TypeVar

from repro.core.layers import Layer
from repro.obs.events import EventKind
from repro.obs.runtime import OBS

__all__ = ["VirtualClock", "RetryPolicy", "RetryStats", "RetryBudgetExceeded",
           "retry_with_backoff", "BreakerState", "BreakerOpen",
           "CircuitBreaker", "HealthMonitor"]

T = TypeVar("T")


class VirtualClock:
    """A monotonically advancing model clock (seconds)."""

    __slots__ = ("now",)

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def advance(self, dt: float) -> float:
        if dt < 0:
            raise ValueError("the clock only advances")
        self.now += dt
        return self.now


# --------------------------------------------------------------------------
# retry with backoff
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RetryPolicy:
    """Backoff shape for :func:`retry_with_backoff`."""

    max_attempts: int = 3
    base_delay_s: float = 0.1
    factor: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.1          # +/- fraction applied to each delay

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def delay_s(self, retry_index: int, rng: random.Random) -> float:
        """The (jittered) delay before retry ``retry_index`` (0-based)."""
        nominal = min(self.max_delay_s,
                      self.base_delay_s * self.factor ** retry_index)
        if self.jitter:
            nominal *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return nominal


@dataclass
class RetryStats:
    """Aggregate bookkeeping across many retried call sites."""

    calls: int = 0
    attempts: int = 0
    retries: int = 0
    recovered: int = 0           # calls that succeeded after >= 1 retry
    exhausted: int = 0           # calls that gave up (attempts or budget)

    def to_dict(self) -> dict:
        return {"calls": self.calls, "attempts": self.attempts,
                "retries": self.retries, "recovered": self.recovered,
                "exhausted": self.exhausted}


class RetryBudgetExceeded(Exception):
    """Backoff would overrun the call's time budget; gave up retrying."""


def retry_with_backoff(op: Callable[[], T], *,
                       policy: RetryPolicy,
                       rng: random.Random,
                       clock: VirtualClock,
                       budget_s: float = float("inf"),
                       retry_on: tuple[type[BaseException], ...] = (Exception,),
                       stats: RetryStats | None = None,
                       on_retry: Callable[[int, BaseException], None] | None = None,
                       ) -> T:
    """Run ``op`` with exponential backoff on transient failures.

    Only exceptions in ``retry_on`` are retried; anything else
    propagates immediately (the typed-error contract: permanent failure
    classes must not consume retry budget).  The modeled backoff delays
    advance ``clock``; when the next delay would push past ``budget_s``
    of elapsed budget, :class:`RetryBudgetExceeded` is raised from the
    last transient error instead of sleeping the budget away.
    """
    if stats is not None:
        stats.calls += 1
    started = clock.now
    retry_index = 0
    while True:
        if stats is not None:
            stats.attempts += 1
        try:
            result = op()
        except retry_on as exc:
            if retry_index + 1 >= policy.max_attempts:
                if stats is not None:
                    stats.exhausted += 1
                raise
            delay = policy.delay_s(retry_index, rng)
            if clock.now - started + delay > budget_s:
                if stats is not None:
                    stats.exhausted += 1
                raise RetryBudgetExceeded(
                    f"retry budget {budget_s:g}s exhausted after "
                    f"{retry_index + 1} attempt(s)") from exc
            if stats is not None:
                stats.retries += 1
            if OBS.enabled:
                OBS.count("faults.retry.retries")
            if on_retry is not None:
                on_retry(retry_index, exc)
            clock.advance(delay)
            retry_index += 1
        else:
            if retry_index and stats is not None:
                stats.recovered += 1
            return result


# --------------------------------------------------------------------------
# circuit breaker
# --------------------------------------------------------------------------

class BreakerState(str, Enum):
    """The classic three-state breaker."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class BreakerOpen(Exception):
    """The breaker is open; the call was rejected without executing."""


@dataclass(frozen=True)
class BreakerTransition:
    """One recorded state change."""

    t: float
    state: BreakerState


class CircuitBreaker:
    """Closed/open/half-open breaker around an unreliable dependency.

    ``failure_threshold`` consecutive failures trip CLOSED -> OPEN;
    after ``recovery_time_s`` on the clock the next call probes
    HALF_OPEN; ``half_open_successes`` consecutive probe successes close
    it again, any probe failure re-opens.  State changes land on the
    observability layer as gauges + events when instrumentation is on.
    """

    def __init__(self, name: str, *,
                 clock: VirtualClock,
                 failure_threshold: int = 3,
                 recovery_time_s: float = 3.0,
                 half_open_successes: int = 1,
                 layer: Layer = Layer.DATA) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if half_open_successes < 1:
            raise ValueError("half_open_successes must be >= 1")
        self.name = name
        self.clock = clock
        self.failure_threshold = failure_threshold
        self.recovery_time_s = recovery_time_s
        self.half_open_successes = half_open_successes
        self.layer = layer
        self.state = BreakerState.CLOSED
        self.opens = 0
        self.rejections = 0
        self.transitions: list[BreakerTransition] = []
        self._consecutive_failures = 0
        self._probe_successes = 0
        self._opened_at = 0.0

    # -- state machine -------------------------------------------------------

    def _transition(self, state: BreakerState) -> None:
        if state == self.state:
            return
        self.state = state
        self.transitions.append(BreakerTransition(self.clock.now, state))
        if OBS.enabled:
            OBS.count(f"faults.breaker.{state.value}")
            OBS.gauge(f"faults.breaker.{self.name}.state",
                      {BreakerState.CLOSED: 0, BreakerState.HALF_OPEN: 1,
                       BreakerState.OPEN: 2}[state])
            OBS.emit(EventKind.BREAKER_STATE, self.layer, self.name,
                     f"breaker -> {state.value}", t=self.clock.now,
                     state=state.value)

    def allow(self) -> bool:
        """May a call proceed right now? (OPEN may lapse to HALF_OPEN.)"""
        if self.state == BreakerState.OPEN:
            if self.clock.now - self._opened_at >= self.recovery_time_s:
                self._probe_successes = 0
                self._transition(BreakerState.HALF_OPEN)
            else:
                return False
        return True

    def record_success(self) -> None:
        self._consecutive_failures = 0
        if self.state == BreakerState.HALF_OPEN:
            self._probe_successes += 1
            if self._probe_successes >= self.half_open_successes:
                self._transition(BreakerState.CLOSED)

    def record_failure(self) -> None:
        if self.state == BreakerState.HALF_OPEN:
            self._open()
            return
        self._consecutive_failures += 1
        if self.state == BreakerState.CLOSED and \
                self._consecutive_failures >= self.failure_threshold:
            self._open()

    def _open(self) -> None:
        self.opens += 1
        self._opened_at = self.clock.now
        self._consecutive_failures = 0
        self._transition(BreakerState.OPEN)

    # -- the guarded call ----------------------------------------------------

    def call(self, op: Callable[[], T]) -> T:
        """Run ``op`` through the breaker.

        Raises :class:`BreakerOpen` without executing when open; feeds
        the outcome back into the state machine otherwise.
        """
        if not self.allow():
            self.rejections += 1
            if OBS.enabled:
                OBS.count("faults.breaker.rejections")
            raise BreakerOpen(f"breaker {self.name!r} is open")
        try:
            result = op()
        except Exception:  # audit: allow AUD005 breaker must observe every failure; re-raised unchanged
            self.record_failure()
            raise
        self.record_success()
        return result

    def to_dict(self) -> dict:
        return {"name": self.name, "opens": self.opens,
                "rejections": self.rejections,
                "finalState": self.state.value}


# --------------------------------------------------------------------------
# health monitor
# --------------------------------------------------------------------------

class HealthMonitor:
    """Windowed pass/fail tracking per component."""

    def __init__(self, *, window: int = 8) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self._results: dict[str, deque[bool]] = {}

    def report(self, component: str, ok: bool) -> None:
        results = self._results.get(component)
        if results is None:
            results = self._results[component] = deque(maxlen=self.window)
        results.append(ok)

    def failure_fraction(self, component: str) -> float:
        """Failures over the recent window (0.0 for unknown components)."""
        results = self._results.get(component)
        if not results:
            return 0.0
        return results.count(False) / len(results)

    def latest(self, component: str) -> bool | None:
        """The most recent report (``None`` for unknown components)."""
        results = self._results.get(component)
        return results[-1] if results else None

    def components(self) -> list[str]:
        return sorted(self._results)
