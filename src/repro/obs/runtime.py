"""The module-level enable switch and the shared instrumentation facade.

Every instrumented hot path in the simulators goes through the single
process-wide :data:`OBS` object::

    from repro.obs.runtime import OBS
    ...
    if OBS.enabled:                      # one attribute read when disabled
        OBS.emit(EventKind.FRAME_SENT, Layer.NETWORK, self.name,
                 f"id={frame.can_id:#x}", t=self.sim.now)

The contract that keeps the disabled mode essentially free (asserted by
``benchmarks/bench_obs_overhead.py``): call sites guard with
``OBS.enabled`` before building message strings or touching metrics, so
a disabled run pays one slot read and a branch per hook.  ``OBS.span``
may be called unguarded — it returns the shared no-op span when
disabled.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Union

from repro.core.layers import Layer
from repro.obs.events import EventKind, EventLog, SimEvent
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NOOP_SPAN, Tracer

__all__ = ["Instrumentation", "OBS", "enable", "disable", "instrumented"]

FieldValue = Union[str, int, float, bool]


class Instrumentation:
    """Bundles the enable flag with the tracer, registry, and event log."""

    __slots__ = ("enabled", "tracer", "metrics", "events",
                 "sample_every", "_sample_counters")

    def __init__(self, *, capacity: int = 65536) -> None:
        self.enabled = False
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.events = EventLog(capacity=capacity)
        #: Admit 1 in N high-rate event/histogram emissions per sample key
        #: (1 = keep everything).  Counters are never sampled — call sites
        #: keep exact counts and gate only the expensive emit/observe work.
        self.sample_every = 1
        self._sample_counters: dict[str, int] = {}

    # -- lifecycle -----------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self, *, capacity: int | None = None) -> None:
        """Clear all collected data (the enable flag and sampling rate are
        left untouched; per-key sampling phases restart)."""
        self.tracer.reset()
        self.metrics.reset()
        self._sample_counters.clear()
        if capacity is None:
            self.events.clear()
        else:
            self.events = EventLog(capacity=capacity)

    # -- hooks (call sites guard with ``if OBS.enabled:``) --------------------

    def emit(self, kind: EventKind, layer: Layer, source: str, message: str,
             *, t: float = 0.0, **fields: FieldValue) -> SimEvent | None:
        if not self.enabled:
            return None
        return self.events.emit(kind, layer, source, message, t=t, **fields)

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.metrics.counter(name).inc(n)

    def observe(self, name: str, value: float) -> None:
        if self.enabled:
            self.metrics.histogram(name).observe(value)

    def gauge(self, name: str, value: float) -> None:
        if self.enabled:
            self.metrics.gauge(name).set(value)

    def span(self, name: str, **tags: FieldValue):
        """A real span when enabled, the shared no-op span otherwise."""
        if not self.enabled:
            return NOOP_SPAN
        return self.tracer.span(name, **tags)

    def sample(self, key: str) -> bool:
        """Deterministic 1-in-N admission for high-rate emission sites.

        Each ``key`` keeps its own modulo counter: the 1st, (N+1)th,
        (2N+1)th... calls are admitted, so a fixed workload always emits
        the same sampled subset regardless of interleaving with other
        keys.  With ``sample_every == 1`` (the default) every call is
        admitted and the fast path is a single comparison.
        """
        if self.sample_every <= 1:
            return True
        seen = self._sample_counters.get(key, 0)
        self._sample_counters[key] = seen + 1
        return seen % self.sample_every == 0


#: The process-wide instrumentation instance all simulators report to.
OBS = Instrumentation()


def enable() -> None:
    """Turn instrumentation on (module-level switch)."""
    OBS.enable()


def disable() -> None:
    OBS.disable()


@contextmanager
def instrumented(*, capacity: int | None = None,
                 sample_every: int = 1) -> Iterator[Instrumentation]:
    """Enable instrumentation for a ``with`` block, starting from empty
    collectors and restoring the previous state afterwards.

    ``sample_every=N`` admits 1 in N high-rate event/histogram emissions
    (see :meth:`Instrumentation.sample`); counters stay exact.
    """
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    was_enabled = OBS.enabled
    was_sampling = OBS.sample_every
    was_events = OBS.events
    OBS.reset(capacity=capacity)
    OBS.sample_every = sample_every
    OBS.enable()
    try:
        yield OBS
    finally:
        OBS.enabled = was_enabled
        OBS.sample_every = was_sampling
        if capacity is not None:
            # a capacity override swapped in a different ring; restore the
            # previous log so the override cannot leak into later blocks
            OBS.events = was_events
