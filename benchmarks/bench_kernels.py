"""BENCH-KERNELS — batched hot-path kernels vs their scalar references.

Two hot paths were vectorized (ROADMAP item: hot-path vectorization);
this bench pins both the speedups and the bit-identical equivalence
that makes the speedups admissible:

1. **CAN frame transport** (:mod:`repro.ivn.bus`).  Three generations
   are timed on the same saturated-segment workload:

   * the *reference* kernel — the pre-optimization implementation,
     preserved verbatim below: list queue, O(n) linear arbitration scan
     per frame (O(n²) per burst), uncached per-frame ``isinstance`` +
     ``transmission_time_s`` bit arithmetic;
   * the *scalar event-loop* kernel — today's ``send()`` + ``sim.run()``:
     heap arbitration and memoized frame times, per-frame completion
     events (full fidelity: obs hooks, callbacks, interleaving);
   * the *batched* kernel — ``send_batch()`` + ``run_batch()``:
     closed-form burst timing, no per-frame closures or events.

   The acceptance gate pins **batched ≥ 10× reference** frames/s, and
   an in-bench oracle asserts the batched ``DeliveryRecord`` stream is
   byte-identical to the scalar path's on a seeded mixed burst.

2. **UWB waveform chain** (:mod:`repro.phy`).  Vectorized pulse-train
   synthesis (cached template + scatter-add) vs the sequential
   placement loop, and ``ds_twr_batch`` vs a scalar ``ds_twr`` loop —
   both with ``np.array_equal`` oracles.

The scalar fallback still exists on purpose: ``run_batch`` drops to the
event loop whenever obs hooks are enabled, a node has a receive
callback, or foreign events are live — the batch path is a fast lane,
not a semantic fork.  The measured numbers live in the tables the
bench shows, which ``python -m repro run BENCH-KERNELS --json`` records
as artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.events import Simulator
from repro.experiments import best_of
from repro.ivn.bus import BusNode, CanBus, DeliveryRecord
from repro.ivn.frames import CanFdFrame, CanFrame, CanXlFrame
from repro.phy.pulses import HRP_CONFIG, build_pulse_train, pulse_template
from repro.phy.ranging import ds_twr, ds_twr_batch

#: Same operating point as BENCH-OBS's bus workload, so the scalar
#: numbers are directly comparable across the two bench files.
N_FRAMES = 400
N_SYMBOLS = 512
N_RANGINGS = 4000
MIN_BATCHED_SPEEDUP = 10.0


# -- the preserved reference kernel ------------------------------------------


@dataclass(frozen=True)
class _QueuedFrame:
    sender: str
    frame: object
    enqueued_at: float
    priority: int


class _ReferenceBus:
    """The pre-optimization CAN kernel, kept as the speedup baseline.

    Faithful to the original hot path: frames wait in a plain list, every
    idle instant runs a full O(n) arbitration scan, and every start
    recomputes the frame's transmission time from its bit layout.
    """

    def __init__(self, sim: Simulator, *, bitrate_bps: float = 500e3,
                 data_bitrate_bps: float = 2e6) -> None:
        self.sim = sim
        self.bitrate_bps = bitrate_bps
        self.data_bitrate_bps = data_bitrate_bps
        self.nodes: dict[str, BusNode] = {}
        self.delivered: list[DeliveryRecord] = []
        self._queue: list[_QueuedFrame] = []
        self._busy = False

    def attach(self, node: BusNode) -> BusNode:
        self.nodes[node.name] = node
        return node

    def send(self, sender: str, frame: object) -> None:
        priority = getattr(frame, "can_id", None)
        if priority is None:
            priority = frame.priority_id  # type: ignore[attr-defined]
        self._queue.append(_QueuedFrame(sender, frame, self.sim.now, priority))
        if not self._busy:
            self._start_next()

    def _frame_time(self, frame: object) -> float:
        if isinstance(frame, CanFrame):
            return frame.transmission_time_s(self.bitrate_bps)
        if isinstance(frame, (CanFdFrame, CanXlFrame)):
            return frame.transmission_time_s(self.bitrate_bps,
                                             self.data_bitrate_bps)
        raise TypeError(f"unsupported frame type {type(frame).__name__}")

    def _start_next(self) -> None:
        if not self._queue:
            return
        winner_idx = min(
            range(len(self._queue)),
            key=lambda i: (self._queue[i].priority,
                           self._queue[i].enqueued_at, i),
        )
        queued = self._queue.pop(winner_idx)
        self._busy = True
        started = self.sim.now
        duration = self._frame_time(queued.frame)

        def complete() -> None:
            record = DeliveryRecord(queued.sender, queued.frame,
                                    queued.enqueued_at, started, self.sim.now)
            self.delivered.append(record)
            for node in self.nodes.values():
                if node.name != queued.sender:
                    node.deliver(record)
            self._busy = False
            self._start_next()

        self.sim.schedule(duration, complete)


# -- workloads ---------------------------------------------------------------


def _bus_reference(n_frames: int = N_FRAMES) -> _ReferenceBus:
    sim = Simulator()
    bus = _ReferenceBus(sim)
    bus.attach(BusNode("sender"))
    bus.attach(BusNode("receiver"))
    frame = CanFrame(0x100, b"\x11" * 8)
    for _ in range(n_frames):
        bus.send("sender", frame)
    sim.run()
    return bus

def _bus_scalar(n_frames: int = N_FRAMES) -> CanBus:
    sim = Simulator()
    bus = CanBus(sim)
    bus.attach(BusNode("sender"))
    bus.attach(BusNode("receiver"))
    frame = CanFrame(0x100, b"\x11" * 8)
    for _ in range(n_frames):
        bus.send("sender", frame)
    sim.run()
    return bus


def _bus_batched(n_frames: int = N_FRAMES) -> CanBus:
    sim = Simulator()
    bus = CanBus(sim)
    bus.attach(BusNode("sender"))
    bus.attach(BusNode("receiver"))
    frame = CanFrame(0x100, b"\x11" * 8)
    bus.send_batch("sender", [frame] * n_frames)
    bus.run_batch()
    return bus


def _mixed_burst(seed: int, n: int) -> list:
    rng = np.random.default_rng(seed)
    frames: list = []
    for _ in range(n):
        kind = int(rng.integers(0, 3))
        can_id = int(rng.integers(0, 0x7FF))
        if kind == 0:
            frames.append(CanFrame(can_id, bytes(8)))
        elif kind == 1:
            frames.append(CanFdFrame(can_id, bytes(32)))
        else:
            frames.append(CanXlFrame(can_id, bytes(64)))
    return frames


def _record_tuple(record: DeliveryRecord) -> tuple:
    return (record.sender, record.frame, record.enqueued_at,
            record.started_at, record.completed_at)


# -- benches -----------------------------------------------------------------


def test_batched_bus_is_10x_reference_kernel(show):
    """The acceptance gate: ≥10× frames/s over the reference kernel —
    and the speedup only counts because the outputs are byte-identical
    (the equivalence oracle below and tests/test_ivn_bus_batch.py)."""
    # Warm the per-shape frame-time memo so the scalar/batched numbers
    # measure steady-state, not first-call cache fills.
    _bus_batched(8)

    reference_s = best_of(_bus_reference) / N_FRAMES
    scalar_s = best_of(_bus_scalar) / N_FRAMES
    batched_s = best_of(_bus_batched) / N_FRAMES

    vs_reference = reference_s / batched_s
    vs_scalar = scalar_s / batched_s
    scalar_vs_reference = reference_s / scalar_s

    show(f"BENCH-KERNELS — CAN transport, {N_FRAMES}-frame saturated burst",
         [("reference (list + O(n) scan)", f"{reference_s * 1e6:8.2f}",
           f"{1.0 / reference_s:9.0f}", "1.00x"),
          ("scalar event loop (heap + memo)", f"{scalar_s * 1e6:8.2f}",
           f"{1.0 / scalar_s:9.0f}", f"{scalar_vs_reference:5.2f}x"),
          ("batched (closed-form burst)", f"{batched_s * 1e6:8.2f}",
           f"{1.0 / batched_s:9.0f}", f"{vs_reference:5.2f}x"),
          ("batched vs scalar event loop", "-", "-", f"{vs_scalar:5.2f}x")],
         header=("kernel", "us/frame", "frames/s", "speedup"))
    assert vs_reference >= MIN_BATCHED_SPEEDUP, (
        f"batched path is only {vs_reference:.1f}x the reference kernel "
        f"({batched_s * 1e6:.2f} vs {reference_s * 1e6:.2f} us/frame); "
        f"the gate requires >= {MIN_BATCHED_SPEEDUP:.0f}x")


def test_batched_bus_outputs_are_byte_identical(show):
    """The in-bench oracle: all three kernels agree record-for-record on
    a seeded mixed burst (classic/FD/XL, random ids)."""
    frames = _mixed_burst(seed=2026, n=250)

    sim_r = Simulator()
    reference = _ReferenceBus(sim_r)
    reference.attach(BusNode("sender"))
    reference.attach(BusNode("receiver"))
    for frame in frames:
        reference.send("sender", frame)
    sim_r.run()

    sim_s = Simulator()
    scalar = CanBus(sim_s)
    scalar.attach(BusNode("sender"))
    scalar.attach(BusNode("receiver"))
    for frame in frames:
        scalar.send("sender", frame)
    sim_s.run()

    sim_b = Simulator()
    batched = CanBus(sim_b)
    batched.attach(BusNode("sender"))
    batched.attach(BusNode("receiver"))
    batched.send_batch("sender", frames)
    batched.run_batch()

    rows_r = [_record_tuple(r) for r in reference.delivered]
    rows_s = [_record_tuple(r) for r in scalar.delivered]
    rows_b = [_record_tuple(r) for r in batched.delivered]
    show("BENCH-KERNELS — equivalence oracle (250-frame mixed burst)",
         [("reference == scalar", rows_r == rows_s),
          ("scalar == batched", rows_s == rows_b),
          ("final clock agrees", sim_r.now == sim_s.now == sim_b.now)],
         header=("invariant", "holds"))
    assert rows_r == rows_s == rows_b
    assert sim_r.now == sim_s.now == sim_b.now


def test_vectorized_pulse_train_matches_placement_loop(show):
    """Scatter-add synthesis vs the sequential loop: equal arrays, and
    the measured speedup is reported (not gated — numpy dispatch
    constants dominate at small symbol counts)."""
    rng = np.random.default_rng(7)
    symbols = rng.choice([-1.0, 1.0], size=N_SYMBOLS)
    template = pulse_template(HRP_CONFIG)
    spp = HRP_CONFIG.samples_per_pri

    def loop_train() -> np.ndarray:
        signal = np.zeros((N_SYMBOLS - 1) * spp + template.size)
        for k in range(N_SYMBOLS):
            start = k * spp
            signal[start:start + template.size] += symbols[k] * template
        return signal

    vectorized = build_pulse_train(symbols, HRP_CONFIG)
    looped = loop_train()
    assert np.array_equal(vectorized, looped)

    loop_s = best_of(loop_train) / N_SYMBOLS
    vec_s = best_of(lambda: build_pulse_train(symbols, HRP_CONFIG)) / N_SYMBOLS
    speedup = loop_s / vec_s

    show(f"BENCH-KERNELS — pulse-train synthesis, {N_SYMBOLS} symbols",
         [("placement loop", f"{loop_s * 1e9:8.0f}", "1.00x"),
          ("scatter-add", f"{vec_s * 1e9:8.0f}", f"{speedup:5.2f}x")],
         header=("kernel", "ns/symbol", "speedup"))
    assert speedup > 1.0


def test_batched_twr_matches_scalar_loop(show):
    """``ds_twr_batch`` vs a scalar ``ds_twr`` loop: exact equality on
    every measured distance, plus the amortized per-exchange speedup."""
    distances = np.linspace(0.5, 80.0, N_RANGINGS)

    def scalar_loop() -> np.ndarray:
        return np.array([ds_twr(float(d), responder_drift_ppm=20.0)
                         .measured_distance_m for d in distances])

    batch = ds_twr_batch(distances, responder_drift_ppm=20.0)
    assert np.array_equal(batch.measured_distance_m, scalar_loop())

    scalar_s = best_of(scalar_loop, repeats=3) / N_RANGINGS
    batch_s = best_of(
        lambda: ds_twr_batch(distances, responder_drift_ppm=20.0),
        repeats=3) / N_RANGINGS
    speedup = scalar_s / batch_s

    show(f"BENCH-KERNELS — DS-TWR ranging, {N_RANGINGS} exchanges",
         [("scalar loop", f"{scalar_s * 1e9:8.0f}", "1.00x"),
          ("batched", f"{batch_s * 1e9:8.0f}", f"{speedup:5.2f}x")],
         header=("kernel", "ns/exchange", "speedup"))
    assert speedup > 2.0
