"""BENCH-FAULTS — the fault injector's cost on the hot paths.

Simulators consult the injector wherever a fault *could* strike — per
CAN frame, per ranging exchange — so the no-fault fast path must be
effectively free.  Two claims are pinned here:

1. **The unscheduled probe is near-free.** ``FaultInjector.fires`` for
   a ``(kind, target)`` pair with no scheduled spec is a single dict
   probe; the bench asserts it costs < 5% of the per-frame CAN budget.
2. **Chaos campaigns are cheap.** A full five-scenario campaign on the
   virtual clock completes in tens of milliseconds — faults are modeled,
   never slept — so CI can run the chaos gate on every push.

The measured numbers live in the tables the bench shows, which
``python -m repro run BENCH-FAULTS --json`` records as artifacts.
"""

from __future__ import annotations

import time

from repro.experiments import best_of
from repro.faults import (
    FaultInjector,
    FaultKind,
    baseline_plan,
    run_chaos_campaign,
)
from repro.lint import scenario_names

N_FRAMES = 400
N_PROBES = 200_000


def _bus_workload(n_frames: int = N_FRAMES) -> None:
    """Saturated CAN segment — the per-frame budget the gate is scaled to."""
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


def _probe_cost_s(iterations: int = N_PROBES) -> float:
    """Per-call cost of the no-fault fast path (nothing scheduled)."""
    injector = FaultInjector(baseline_plan(), base_seed=0)
    fired = False
    t0 = time.perf_counter()
    for _ in range(iterations):
        # zonal-can never has a babbling-idiot spec in the baseline plan,
        # so this is the one-dict-probe miss every hot path pays
        fired |= injector.fires(FaultKind.IVN_BABBLING_IDIOT, "zonal-can", 9.0)
    elapsed = time.perf_counter() - t0
    assert not fired and injector.count == 0
    return elapsed / iterations


def _loop_floor_s(iterations: int = N_PROBES) -> float:
    injector_count = 0
    t0 = time.perf_counter()
    for _ in range(iterations):
        pass
    assert injector_count == 0
    return (time.perf_counter() - t0) / iterations


def test_unscheduled_probe_is_within_the_frame_budget(show):
    """The acceptance gate: the no-fault fast path < 5% of per-frame work."""
    frame_s = best_of(_bus_workload) / N_FRAMES
    probe_s = max(0.0, _probe_cost_s() - _loop_floor_s())
    overhead = probe_s / frame_s

    campaign_t0 = time.perf_counter()
    document = run_chaos_campaign(scenario_names(), "baseline",
                                  base_seed=0)
    campaign_s = time.perf_counter() - campaign_t0

    show("BENCH-FAULTS — injector cost on the hot paths",
         [("no-fault probe", f"{probe_s * 1e9:9.1f} ns",
           f"{overhead:6.2%} of frame"),
          ("can-bus frame", f"{frame_s * 1e9:9.0f} ns", "-"),
          ("chaos campaign (5 scenarios)", f"{campaign_s * 1e3:9.1f} ms",
           f"{document['summary']['faultsInjected']} faults")],
         header=("path", "cost", "note"))
    assert overhead < 0.05, (
        f"no-fault probe costs {overhead:.1%} of the per-frame budget "
        f"(probe {probe_s * 1e9:.1f} ns, frame {frame_s * 1e9:.0f} ns)")


def test_armed_window_still_replays_identically(show):
    """Sanity: the timed path stays deterministic under repetition."""
    sequences = []
    for _ in range(2):
        injector = FaultInjector(baseline_plan(), base_seed=0)
        sequences.append([
            injector.fires(FaultKind.IVN_FRAME_DROP, "zonal-can", float(t))
            for t in range(8, 20)])
    show("BENCH-FAULTS — armed-window determinism",
         [("fires in [8, 20)", sum(sequences[0]), len(sequences[0]))],
         header=("window", "fired", "opportunities"))
    assert sequences[0] == sequences[1]
    assert any(sequences[0])
