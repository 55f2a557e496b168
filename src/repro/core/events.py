"""Deterministic discrete-event simulation kernel.

Shared substrate for the timed simulators in this reproduction: the CAN
bus and Ethernet switch models (:mod:`repro.ivn`), the 10BASE-T1S PLCA
round-robin, and the collaborative-perception world (:mod:`repro.collab`).

The kernel is a plain priority queue of ``(time, seq, event)`` tuples.
``seq`` is unique, so it makes ordering total and deterministic: two
events scheduled for the same instant fire in scheduling order, so
repeated runs of a seeded simulation are bit-identical — a prerequisite
for reproducible security experiments.  Because no two entries share a
``seq``, the heap's tuple comparisons never reach the :class:`Event`
itself: they stay in C, where comparing ordered dataclasses would run a
Python-level ``__lt__`` per sift.

Canceling an event only marks it; the kernel skips it when popped.  So
that marks cannot pile up behind a far-off head (the batched CAN bus
cancels one completion event per burst), the queue is rebuilt without
them once they are more than half of it, as asyncio does with cancelled
timers.  ``(time, seq)`` is a total order, so firing order is unchanged.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["Event", "Simulator"]


@dataclass(eq=False)
class Event:
    """Handle to a scheduled callback, returned by :meth:`Simulator.schedule`.

    The kernel orders its queue by the ``(time, seq)`` of the entry that
    holds the event; the event itself defines no ordering and compares by
    identity, so a caller can tell whether a live event is the one it
    holds.
    """

    time: float
    seq: int
    action: Callable[[], None]
    canceled: bool = False
    simulator: Simulator | None = field(default=None, repr=False)

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when popped."""
        if self.canceled:
            return
        self.canceled = True
        if self.simulator is not None:
            self.simulator._note_canceled()


class Simulator:
    """Minimal deterministic event loop.

    Usage::

        sim = Simulator()
        sim.schedule(1.5, lambda: print("fired at", sim.now))
        sim.run()
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._processed = 0
        # Canceled entries still in the queue; an event canceled after it
        # fired counts too, which only brings a compaction forward.
        self._canceled = 0

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including canceled ones)."""
        return len(self._queue)

    def schedule(self, delay: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` to run ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        time, seq = self.now + delay, self._seq
        event = Event(time, seq, action, simulator=self)
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def schedule_at(self, time: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` at an absolute simulation time."""
        return self.schedule(time - self.now, action)

    def _note_canceled(self) -> None:
        self._canceled += 1
        if 2 * self._canceled > len(self._queue):
            self._queue = [entry for entry in self._queue if not entry[2].canceled]
            heapq.heapify(self._queue)
            self._canceled = 0

    def peek_time(self) -> float | None:
        """Time of the next *live* event, or None when none remain.

        Canceled entries at the heap head are lazily popped, so the
        answer always refers to an event that will actually fire —
        ``run(until=...)`` relies on this to avoid executing a live
        event past ``until`` hiding behind a canceled head.
        """
        queue = self._queue
        while queue:
            time, _seq, head = queue[0]
            if head.canceled:
                heapq.heappop(queue)
                self._canceled -= 1
                continue
            return time
        return None

    def live_events(self) -> list[Event]:
        """Non-canceled queued events, in heap (not firing) order.

        O(n) snapshot used by batch fast paths to prove no foreign
        event would interleave with an analytically-computed burst.
        """
        return [event for _time, _seq, event in self._queue if not event.canceled]

    def advance_to(self, time: float, *, processed: int = 0) -> None:
        """Jump the clock forward after a batch computed events analytically.

        Batch fast paths (e.g. :meth:`repro.ivn.bus.CanBus.run_batch`)
        replace a run of scheduled callbacks with closed-form bookkeeping;
        this commits their net effect — the final clock value and how many
        events' worth of work they accounted for — back to the kernel.
        """
        if time < self.now:
            raise ValueError(
                f"cannot advance backwards (now={self.now}, target={time})")
        if processed < 0:
            raise ValueError("processed count must be non-negative")
        self.now = time
        self._processed += processed

    def step(self) -> bool:
        """Execute the next event. Returns False when the queue is empty."""
        queue = self._queue
        while queue:
            time, _seq, event = heapq.heappop(queue)
            if event.canceled:
                self._canceled -= 1
                continue
            self.now = time
            event.action()
            self._processed += 1
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events`` fire."""
        executed = 0
        while self._queue:
            if max_events is not None and executed >= max_events:
                return
            next_time = self.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self.now = until
                return
            if not self.step():
                return
            executed += 1
        if until is not None and until > self.now:
            self.now = until
