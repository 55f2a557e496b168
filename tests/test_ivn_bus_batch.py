"""Batched-vs-scalar CAN bus equivalence and fallback tests.

The repo's core invariant — same (seed, scenario) → byte-identical
outputs — must survive the batched fast path, so every test here pins
*exact* equality (not approximate) between the scalar event-loop path
and :meth:`CanBus.run_batch`: identical ``DeliveryRecord`` streams,
identical clocks, identical per-node receive logs.
"""

import numpy as np
import pytest

from repro.core.events import Simulator
from repro.ivn.bus import BusNode, CanBus, DeliveryRecord
from repro.ivn.frames import CanFdFrame, CanFrame, CanXlFrame, frame_shape_key, frame_time_s
from repro.obs.runtime import OBS, instrumented


def _record_tuple(record: DeliveryRecord) -> tuple:
    return (record.sender, record.frame, record.enqueued_at,
            record.started_at, record.completed_at)


def _random_frames(seed: int, n: int) -> list:
    """A seeded mixed burst: classic / FD / XL, random ids and payloads."""
    rng = np.random.default_rng(seed)
    frames: list = []
    for _ in range(n):
        kind = int(rng.integers(0, 3))
        can_id = int(rng.integers(0, 0x7FF))
        if kind == 0:
            payload = bytes(rng.integers(0, 256, int(rng.integers(0, 9))).tolist())
            frames.append(CanFrame(can_id, payload))
        elif kind == 1:
            payload = bytes(rng.integers(0, 256, int(rng.integers(0, 65))).tolist())
            frames.append(CanFdFrame(can_id, payload))
        else:
            payload = bytes(rng.integers(0, 256, int(rng.integers(1, 129))).tolist())
            frames.append(CanXlFrame(can_id, payload))
    return frames


def _build_bus(node_names=("tx", "rx-1", "rx-2")) -> tuple[Simulator, CanBus]:
    sim = Simulator()
    bus = CanBus(sim)
    for name in node_names:
        bus.attach(BusNode(name))
    return sim, bus


def _run_scalar(frames) -> tuple[Simulator, CanBus]:
    sim, bus = _build_bus()
    for frame in frames:
        bus.send("tx", frame)
    sim.run()
    return sim, bus


def _run_batched(frames) -> tuple[Simulator, CanBus]:
    sim, bus = _build_bus()
    bus.send_batch("tx", frames)
    bus.run_batch()
    return sim, bus


def _assert_equivalent(scalar: tuple[Simulator, CanBus],
                       batched: tuple[Simulator, CanBus]) -> None:
    sim_s, bus_s = scalar
    sim_b, bus_b = batched
    assert sim_s.now == sim_b.now
    assert sim_s.processed_events == sim_b.processed_events
    assert len(bus_s.delivered) == len(bus_b.delivered)
    for rec_s, rec_b in zip(bus_s.delivered, bus_b.delivered):
        assert _record_tuple(rec_s) == _record_tuple(rec_b)
    for name in bus_s.nodes:
        got_s = [_record_tuple(r) for r in bus_s.nodes[name].received]
        got_b = [_record_tuple(r) for r in bus_b.nodes[name].received]
        assert got_s == got_b


class TestBatchEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    def test_mixed_burst_is_byte_identical(self, seed):
        frames = _random_frames(seed, 300)
        _assert_equivalent(_run_scalar(frames), _run_batched(frames))

    def test_single_frame(self):
        frames = [CanFrame(0x100, b"\x11" * 8)]
        _assert_equivalent(_run_scalar(frames), _run_batched(frames))

    def test_empty_batch(self):
        sim, bus = _build_bus()
        assert bus.send_batch("tx", []) == 0
        assert bus.run_batch() == 0
        assert sim.now == 0.0

    def test_arbitration_order_priority_then_fifo(self):
        # Idle bus: the first-sent frame transmits immediately; queued
        # contenders then drain lowest-id-first, FIFO among equal ids.
        frames = [CanFrame(0x500, b"a"), CanFrame(0x100, b"b"),
                  CanFrame(0x300, b"c"), CanFrame(0x100, b"d")]
        for runner in (_run_scalar, _run_batched):
            _, bus = runner(frames)
            order = [r.frame.payload for r in bus.delivered]
            assert order == [b"a", b"b", b"d", b"c"]

    def test_batch_after_partial_scalar_run(self):
        """run_batch picks up mid-stream: a frame already in flight (with
        its completion event scheduled) completes at the same instant the
        scalar path would have completed it."""
        frames = _random_frames(3, 60)
        sim_s, bus_s = _run_scalar(frames)

        sim_b, bus_b = _build_bus()
        bus_b.send_batch("tx", frames)
        # Drain half the burst through the event loop, leaving one frame
        # in flight and the rest queued.
        sim_b.run(max_events=30)
        assert bus_b.pending_frames > 0
        bus_b.run_batch()
        _assert_equivalent((sim_s, bus_s), (sim_b, bus_b))

    def test_interleaved_send_and_send_batch(self):
        frames = _random_frames(5, 40)
        sim_s, bus_s = _run_scalar(frames)

        sim_b, bus_b = _build_bus()
        for frame in frames[:10]:
            bus_b.send("tx", frame)
        bus_b.send_batch("tx", frames[10:])
        bus_b.run_batch()
        _assert_equivalent((sim_s, bus_s), (sim_b, bus_b))

    def test_multi_sender_batches(self):
        frames_a = _random_frames(11, 50)
        frames_b = _random_frames(12, 50)

        sim_s, bus_s = _build_bus()
        for frame in frames_a:
            bus_s.send("tx", frame)
        for frame in frames_b:
            bus_s.send("rx-1", frame)
        sim_s.run()

        sim_b, bus_b = _build_bus()
        bus_b.send_batch("tx", frames_a)
        bus_b.send_batch("rx-1", frames_b)
        bus_b.run_batch()
        _assert_equivalent((sim_s, bus_s), (sim_b, bus_b))

    def test_send_batch_requires_attached_sender(self):
        _, bus = _build_bus()
        with pytest.raises(KeyError):
            bus.send_batch("ghost", [CanFrame(0x1, b"")])


class TestScalarFallback:
    def test_receive_callback_forces_fallback(self):
        """A node callback needs per-frame fidelity; run_batch must fall
        back to the event loop and still produce identical results."""
        frames = _random_frames(21, 40)
        seen_scalar: list = []
        seen_batch: list = []

        def build(seen):
            sim = Simulator()
            bus = CanBus(sim)
            bus.attach(BusNode("tx"))
            bus.attach(BusNode("rx", on_receive=lambda r: seen.append(r.frame)))
            return sim, bus

        sim_s, bus_s = build(seen_scalar)
        for frame in frames:
            bus_s.send("tx", frame)
        sim_s.run()

        sim_b, bus_b = build(seen_batch)
        bus_b.send_batch("tx", frames)
        assert not bus_b._batch_eligible()
        bus_b.run_batch()
        assert seen_scalar == seen_batch
        assert sim_s.now == sim_b.now
        assert [_record_tuple(r) for r in bus_s.delivered] == \
               [_record_tuple(r) for r in bus_b.delivered]

    def test_obs_enabled_forces_fallback(self):
        frames = _random_frames(22, 20)
        with instrumented() as obs:
            sim, bus = _build_bus()
            bus.send_batch("tx", frames)
            assert not bus._batch_eligible()
            delivered = bus.run_batch()
            assert delivered == 20
            assert obs.metrics.counter("ivn.bus.batch_fallbacks").value == 1
            assert obs.metrics.counter("ivn.bus.frames_delivered").value == 20
        assert not OBS.enabled

    def test_foreign_live_event_forces_fallback(self):
        sim, bus = _build_bus()
        fired = []
        bus.send_batch("tx", [CanFrame(0x100, b"\x01" * 8)] * 5)
        sim.schedule(1e-5, lambda: fired.append(sim.now))
        assert not bus._batch_eligible()
        bus.run_batch()
        assert fired  # the foreign event interleaved with the burst
        assert len(bus.delivered) == 5

    def test_canceled_foreign_event_keeps_fast_path(self):
        sim, bus = _build_bus()
        bus.send_batch("tx", [CanFrame(0x100, b"\x01" * 8)] * 5)
        sim.schedule(1e-5, lambda: None).cancel()
        assert bus._batch_eligible()
        assert bus.run_batch() == 5


class TestCanceledCompletions:
    def test_many_bursts_keep_the_queue_bounded(self):
        # Every burst on an idle bus starts its first frame, then run_batch
        # cancels that frame's completion event; the kernel must drop the
        # canceled entries instead of keeping one per burst.
        cycles = 10_000
        bursts = [[CanFrame(0x100 + i % 7, bytes([i % 256]) * 8), CanFrame(0x80, b"\x01")]
                  for i in range(cycles)]
        scalar_sim, scalar_bus = _build_bus()
        batched_sim, batched_bus = _build_bus()
        most_pending = 0
        for burst in bursts:
            for frame in burst:
                scalar_bus.send("tx", frame)
            scalar_sim.run()
            batched_bus.send_batch("tx", burst)
            batched_bus.run_batch()
            most_pending = max(most_pending, batched_sim.pending_events)
        assert most_pending <= 1
        _assert_equivalent((scalar_sim, scalar_bus), (batched_sim, batched_bus))


class TestUtilizationWindow:
    def test_includes_in_flight_partial_interval(self):
        """Regression: a mid-transmission query must count the active
        frame's elapsed busy time, not just completed records."""
        sim, bus = _build_bus()
        frame = CanFrame(0x100, b"\x11" * 8)
        duration = frame.transmission_time_s(bus.bitrate_bps)
        bus.send("tx", frame)
        sim.run(until=duration / 2.0)
        assert bus.delivered == []
        assert bus.utilization_window == pytest.approx(1.0)
        sim.run()
        assert bus.utilization_window == pytest.approx(1.0)

    def test_idle_gap_dilutes_utilization(self):
        sim, bus = _build_bus()
        frame = CanFrame(0x100, b"\x11" * 8)
        duration = frame.transmission_time_s(bus.bitrate_bps)
        bus.send("tx", frame)
        sim.run(until=2.0 * duration)
        assert bus.utilization_window == pytest.approx(0.5)

    def test_zero_time_is_zero(self):
        _, bus = _build_bus()
        assert bus.utilization_window == 0.0


class TestFrameTimeMemo:
    def test_shape_key_ignores_id_and_payload_bytes(self):
        assert frame_shape_key(CanFrame(0x1, b"ab")) == \
               frame_shape_key(CanFrame(0x7FE, b"zz"))
        assert frame_shape_key(CanFrame(0x1, b"ab")) != \
               frame_shape_key(CanFrame(0x1, b"abc"))
        assert frame_shape_key(CanFrame(0x1, b"ab", extended=True)) != \
               frame_shape_key(CanFrame(0x1, b"ab"))
        assert frame_shape_key(CanFrame(0x1, b"ab")) != \
               frame_shape_key(CanFdFrame(0x1, b"ab"))

    def test_shape_key_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            frame_shape_key(object())

    def test_memoized_time_matches_direct_computation(self):
        for frame in (CanFrame(0x123, b"\x01" * 8),
                      CanFrame(0x1FFFF, b"\x02" * 4, extended=True)):
            assert frame_time_s(frame, 500e3, 2e6) == \
                   frame.transmission_time_s(500e3)
        fd = CanFdFrame(0x456, b"\x03" * 48)
        assert frame_time_s(fd, 500e3, 2e6) == fd.transmission_time_s(500e3, 2e6)
        xl = CanXlFrame(0x77, b"\x04" * 256)
        assert frame_time_s(xl, 500e3, 10e6) == xl.transmission_time_s(500e3, 10e6)

    def test_memoization_is_per_bitrate(self):
        frame = CanFrame(0x100, b"\x11" * 8)
        assert frame_time_s(frame, 500e3, 2e6) != frame_time_s(frame, 1e6, 2e6)
