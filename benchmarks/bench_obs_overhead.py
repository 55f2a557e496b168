"""BENCH-OBS — the observability layer's cost on the hot paths.

Two claims are pinned here, per the ``repro.obs`` design contract:

1. **Disabled mode is near-free.** Call sites guard every hook with one
   ``OBS.enabled`` attribute read, so a disabled run pays a slot read
   and a branch per hook.  The bench times the guard itself and the
   per-frame CAN-bus hot path, and asserts the guards account for < 5%
   of per-frame work.
2. **Enabled mode stays usable.** Instrumented-vs-disabled throughput is
   measured on the CAN-bus and UWB-ranging hot paths and reported — the
   profiling tax you pay only when you ask for a trace.

The measured numbers live in the tables the bench shows, which
``python -m repro run BENCH-OBS --json`` records as artifacts.
"""

from __future__ import annotations

import time

from repro.experiments import best_of
from repro.obs.runtime import OBS, instrumented

#: Guard evaluations per bus frame: one in send(), one in the delivery
#: completion (each guarding an emit + counter/histogram update).
GUARDS_PER_FRAME = 2
N_FRAMES = 400
N_RANGINGS = 2000


def _bus_workload(n_frames: int = N_FRAMES) -> None:
    """Saturated CAN segment: every frame queued up front, arbitration
    and delivery drain the queue — the Fig. 3 hot path."""
    from repro.core.events import Simulator
    from repro.ivn.bus import BusNode, CanBus
    from repro.ivn.frames import CanFrame

    sim = Simulator()
    bus = CanBus(sim)
    bus.attach(BusNode("sender"))
    bus.attach(BusNode("receiver"))
    frame = CanFrame(0x100, b"\x11" * 8)
    for _ in range(n_frames):
        bus.send("sender", frame)
    sim.run()


def _ranging_workload(n: int = N_RANGINGS) -> None:
    """Back-to-back DS-TWR exchanges — the Fig. 2 hot path."""
    from repro.phy.ranging import ds_twr

    for _ in range(n):
        ds_twr(10.0, responder_drift_ppm=20.0)


def _guard_cost_s(iterations: int = 200_000) -> float:
    """Per-evaluation cost of the disabled-mode guard, on the real OBS."""
    obs = OBS
    assert not obs.enabled
    sink = 0
    t0 = time.perf_counter()
    for _ in range(iterations):
        if obs.enabled:
            sink += 1  # pragma: no cover - disabled mode never reaches this
    elapsed = time.perf_counter() - t0
    assert sink == 0
    return elapsed / iterations


def _loop_floor_s(iterations: int = 200_000) -> float:
    """Cost of the bare measurement loop, subtracted from the guard time."""
    t0 = time.perf_counter()
    for _ in range(iterations):
        pass
    return (time.perf_counter() - t0) / iterations


def _measure(workload, n_items: int) -> tuple[float, float]:
    """(disabled, enabled) per-item seconds for one workload."""
    OBS.disable()
    disabled = best_of(workload) / n_items
    with instrumented():
        enabled = best_of(workload) / n_items
    OBS.disable()
    return disabled, enabled


def test_disabled_overhead_on_can_bus_hot_path(show):
    """The acceptance gate: disabled-mode guards < 5% of per-frame work."""
    disabled_s, enabled_s = _measure(_bus_workload, N_FRAMES)
    guard_s = max(0.0, _guard_cost_s() - _loop_floor_s())
    overhead = GUARDS_PER_FRAME * guard_s / disabled_s

    rng_disabled_s, rng_enabled_s = _measure(_ranging_workload, N_RANGINGS)

    show("BENCH-OBS — instrumentation overhead on the hot paths",
         [("can-bus frame", f"{disabled_s * 1e9:9.0f}", f"{enabled_s * 1e9:9.0f}",
           f"{enabled_s / disabled_s:5.2f}x"),
          ("ds-twr ranging", f"{rng_disabled_s * 1e9:9.0f}",
           f"{rng_enabled_s * 1e9:9.0f}",
           f"{rng_enabled_s / rng_disabled_s:5.2f}x"),
          ("guard check", f"{guard_s * 1e9:9.1f}", "-", "-"),
          ("guards per frame", "-", "-", f"{overhead:6.2%} of frame")],
         header=("hot path", "disabled ns", "enabled ns", "ratio"))
    assert overhead < 0.05, (
        f"disabled-mode guards cost {overhead:.1%} of the per-frame budget "
        f"(guard {guard_s * 1e9:.1f} ns, frame {disabled_s * 1e9:.0f} ns)")


def test_enabled_mode_collects_on_both_paths(show):
    """Sanity: the same workloads produce events/metrics when enabled."""
    with instrumented() as obs:
        _bus_workload(50)
        _ranging_workload(50)
        frames = obs.metrics.counter("ivn.bus.frames_delivered").value
        rangings = obs.metrics.counter("phy.ranging.measurements").value
    show("BENCH-OBS — enabled-mode collection sanity",
         [("frames delivered", frames), ("rangings recorded", rangings)],
         header=("counter", "value"))
    assert frames == 50
    assert rangings == 50


def test_sampled_mode_cuts_enabled_overhead(show):
    """The sampling gate: 1-in-8 emission cuts the enabled-mode tax.

    ``instrumented(sample_every=8)`` admits one span/event observation
    in eight on the high-rate hot paths while exact counters keep
    counting every item.  The pin: the sampled run keeps < 70% of the
    full enabled-mode overhead (measured above disabled-mode cost) on
    the ranging hot path — in practice it keeps far less, but the gate
    must stay robust on noisy CI boxes.
    """
    disabled_s, enabled_s = _measure(_ranging_workload, N_RANGINGS)
    with instrumented(sample_every=8):
        sampled_s = best_of(_ranging_workload) / N_RANGINGS
    OBS.disable()

    with instrumented(sample_every=8) as obs:
        _ranging_workload(100)
        counted = obs.metrics.counter("phy.ranging.measurements").value
        admitted = len(obs.events)

    full_overhead = max(enabled_s - disabled_s, 1e-12)
    sampled_overhead = max(sampled_s - disabled_s, 0.0)
    ratio = sampled_overhead / full_overhead

    show("BENCH-OBS — 1-in-8 sampling on the ranging hot path",
         [("disabled", f"{disabled_s * 1e9:9.0f}", "-"),
          ("enabled (full)", f"{enabled_s * 1e9:9.0f}", "1.00"),
          ("enabled (1-in-8)", f"{sampled_s * 1e9:9.0f}", f"{ratio:.2f}")],
         header=("mode", "ns/call", "overhead kept"))
    assert counted == 100, "sampling must never touch exact counters"
    assert admitted == 13, f"expected 13 of 100 events admitted, got {admitted}"
    assert ratio < 0.7, (
        f"1-in-8 sampling kept {ratio:.0%} of the enabled-mode overhead "
        f"(sampled {sampled_s * 1e9:.0f} ns vs full {enabled_s * 1e9:.0f} ns)")
