"""Equivalence oracle for the discrete-event kernel.

:class:`repro.core.events.Simulator` heaps ``(time, seq, event)`` tuples.
The reference below is the earlier kernel, which heaped ordered
dataclasses compared by ``(time, seq)``, kept verbatim apart from its
names.  Hypothesis drives both through the same sequences of
``schedule``, ``schedule_at``, ``cancel``, ``run``, ``peek_time`` and
``step`` calls, with events that schedule or cancel others when they
fire, and every observable must agree after every call.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import Event, Simulator


@dataclass(order=True)
class RefEvent:
    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)
    canceled: bool = field(default=False, compare=False)
    simulator: RefSimulator | None = field(default=None, compare=False, repr=False)

    def cancel(self) -> None:
        if self.canceled:
            return
        self.canceled = True
        if self.simulator is not None:
            self.simulator._note_canceled()


class RefSimulator:
    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list[RefEvent] = []
        self._seq = 0
        self._processed = 0
        self._canceled = 0

    @property
    def processed_events(self) -> int:
        return self._processed

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    def schedule(self, delay: float, action: Callable[[], None]) -> RefEvent:
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        event = RefEvent(self.now + delay, self._seq, action, simulator=self)
        self._seq += 1
        heapq.heappush(self._queue, event)
        return event

    def schedule_at(self, time: float, action: Callable[[], None]) -> RefEvent:
        return self.schedule(time - self.now, action)

    def _note_canceled(self) -> None:
        self._canceled += 1
        if 2 * self._canceled > len(self._queue):
            self._queue = [event for event in self._queue if not event.canceled]
            heapq.heapify(self._queue)
            self._canceled = 0

    def peek_time(self) -> float | None:
        while self._queue:
            head = self._queue[0]
            if head.canceled:
                heapq.heappop(self._queue)
                self._canceled -= 1
                continue
            return head.time
        return None

    def live_events(self) -> list[RefEvent]:
        return [event for event in self._queue if not event.canceled]

    def step(self) -> bool:
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.canceled:
                self._canceled -= 1
                continue
            self.now = event.time
            event.action()
            self._processed += 1
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
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


class Driver:
    """One kernel plus its handles, driven by label-addressed operations.

    Every scheduled event gets the next label; ``handles[label]`` is the
    kernel's handle for it.  An event's effect, applied when it fires, is
    ``None``, ``("spawn", delay, effect)`` or ``("cancel", label)``.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.handles: list = []
        self.fired: list[tuple[int, float]] = []

    def _action(self, label: int, effect):
        def fire() -> None:
            self.fired.append((label, self.sim.now))
            if effect is None:
                return
            if effect[0] == "spawn":
                self.schedule(effect[1], effect[2])
            else:
                self.cancel(effect[1])

        return fire

    def schedule(self, delay: float, effect) -> None:
        label = len(self.handles)
        self.handles.append(self.sim.schedule(delay, self._action(label, effect)))

    def schedule_at(self, time: float, effect) -> None:
        label = len(self.handles)
        self.handles.append(self.sim.schedule_at(time, self._action(label, effect)))

    def cancel(self, label: int) -> None:
        if self.handles:
            self.handles[label % len(self.handles)].cancel()

    def apply(self, op):
        kind = op[0]
        if kind == "schedule":
            return self.schedule(op[1], op[2])
        if kind == "schedule_many":
            for delay in op[1]:
                self.schedule(delay, None)
            return None
        if kind == "schedule_at":
            return self.schedule_at(op[1], op[2])
        if kind == "cancel":
            return self.cancel(op[1])
        if kind == "cancel_all":
            for handle in self.handles:
                handle.cancel()
            return None
        if kind == "run":
            return self.sim.run(until=op[1], max_events=op[2])
        if kind == "peek":
            return self.sim.peek_time()
        return self.sim.step()

    def observe(self) -> tuple:
        index = {id(handle): label for label, handle in enumerate(self.handles)}
        live = sorted(index[id(event)] for event in self.sim.live_events())
        return (list(self.fired), self.sim.now, self.sim.processed_events,
                self.sim.pending_events, live)


# Few distinct times, so equal-time ties are common.
times = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 3.5])
effects = st.recursive(
    st.none() | st.tuples(st.just("cancel"), st.integers(0, 40)),
    lambda inner: st.tuples(st.just("spawn"), times, inner),
    max_leaves=3,
)
operations = st.one_of(
    st.tuples(st.just("schedule"), times, effects),
    st.tuples(st.just("schedule_many"), st.lists(times, min_size=2, max_size=8)),
    st.tuples(st.just("schedule_at"), st.sampled_from([0.0, 1.0, 2.0, 4.0, 6.0]), effects),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    st.tuples(st.just("cancel_all")),
    st.tuples(st.just("run"), st.none() | st.sampled_from([0.0, 1.0, 2.5, 5.0]),
              st.none() | st.integers(0, 4)),
    st.tuples(st.just("peek")),
    st.tuples(st.just("step")),
)


def _both(op, reference: Driver, kernel: Driver) -> None:
    outcomes = []
    for driver in (reference, kernel):
        try:
            outcomes.append(("ok", driver.apply(op)))
        except ValueError as exc:
            outcomes.append(("error", str(exc)))
    assert outcomes[0] == outcomes[1], op
    assert reference.observe() == kernel.observe(), op


@settings(max_examples=300, deadline=None)
@given(st.lists(operations, max_size=60))
def test_kernel_matches_reference(ops):
    reference, kernel = Driver(RefSimulator()), Driver(Simulator())
    for op in ops:
        _both(op, reference, kernel)
    _both(("run", None, None), reference, kernel)
    assert kernel.sim.pending_events == 0


def test_canceled_heads_popped_by_peek_leave_the_count_alike():
    # peek_time pops the canceled head; the next cancel must see the same
    # canceled count in both kernels, or one of them compacts early.
    reference, kernel = Driver(RefSimulator()), Driver(Simulator())
    ops = [("schedule", float(t), None) for t in (1, 2, 3, 4)]
    ops += [("cancel", 0), ("peek",), ("cancel", 1), ("cancel", 3), ("run", None, None)]
    for op in ops:
        _both(op, reference, kernel)


@pytest.mark.parametrize("cancel_fired", [False, True])
def test_compaction_and_fired_cancels_match_reference(cancel_fired):
    reference, kernel = Driver(RefSimulator()), Driver(Simulator())
    ops = [("schedule", float(i % 3), None) for i in range(12)]
    ops += [("run", None, 4)]
    # Cancel fired events (labels 0-3) too when asked, then enough live
    # ones that canceled entries pass half the queue and it is rebuilt.
    first = 0 if cancel_fired else 4
    ops += [("cancel", label) for label in range(first, 10)]
    ops += [("schedule", 0.0, ("cancel", 11)), ("peek",), ("step",), ("run", None, None)]
    for op in ops:
        _both(op, reference, kernel)


def test_event_defines_no_ordering():
    for name in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__"):
        assert name not in vars(Event), name
    sim = Simulator()
    first = sim.schedule(1.0, lambda: None)
    second = sim.schedule(1.0, lambda: None)
    with pytest.raises(TypeError):
        first < second  # noqa: B015
    assert first != second
    assert sim.live_events()[0] is first
