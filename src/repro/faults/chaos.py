"""Chaos campaigns: the five scenarios run under injected fault plans.

A *campaign* replays a lint/trace scenario's cross-layer workload on a
virtual clock while a :class:`~repro.faults.injector.FaultInjector`
fires a :class:`~repro.faults.plan.FaultPlan` at it, and measures what
the paper's fail-operational argument (§VIII) actually requires:

* **per-layer availability** — the fraction of per-tick operations each
  layer completed, overall and inside the fault window;
* **time to degrade / recover** — when the
  :class:`~repro.faults.degradation.DegradationManager` first shed
  function and when (if ever) it climbed back to FULL;
* **resilience statistics** — retry recoveries, breaker opens and
  rejections, stale-cache DID resolutions.

Each scenario's *posture* lives on its one record,
:class:`repro.lint.scenarios.Scenario`: the hardened onboard network
retries transmissions, breaks circuits around the telemetry backend,
runs an IDS whose CRITICAL alert isolates the babbling ECU, and recovers
with hysteresis; the legacy/insecure scenarios run the same workload
with no resilience machinery at all, which is precisely why the severe
plan drives them to MINIMAL_RISK or SAFE_STOP while ``onboard-hardened``
rides the baseline plan out at DEGRADED and returns to FULL.

Everything — firing decisions, retry jitter, backoff — derives from
``(plan, base seed)`` through :mod:`repro.core.rng`, so a campaign's
JSON result is byte-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.layers import Layer
from repro.core.response import SecurityAlert, Severity
from repro.core.rng import python_rng
from repro.datalayer.cloud import (
    CloudService,
    CloudTimeout,
    Endpoint,
    ServiceUnavailable,
    TransientCloudError,
)
from repro.faults.harness import (
    BABBLING,
    BIT_FLIP,
    CORRUPTION,
    FRAME_DROP,
    LATENCY,
    NLOS,
    OUTAGE,
    REGISTRY_DOWN,
    SUBSYSTEM_LAYER,
    TIMEOUT,
    campaign_document,
    did_registry,
    open_scenario,
)
from repro.faults.plan import DEFAULT_DURATION, FaultPlan
from repro.faults.report import SCHEMA_VERSION, TOOL_NAME, chaos_summary
from repro.faults.resilience import (
    BreakerOpen,
    RetryPolicy,
    RetryStats,
    VirtualClock,
    retry_with_backoff,
)
from repro.ssi.registry import CachingResolver, RegistryUnavailable

__all__ = ["run_chaos_scenario", "run_chaos_campaign"]


class _OpFailed(Exception):
    """A per-tick subsystem operation lost to an injected fault."""


@dataclass
class _Tally:
    attempts: int = 0
    successes: int = 0
    window_attempts: int = 0
    window_successes: int = 0

    def add(self, ok: bool, in_window: bool) -> None:
        self.attempts += 1
        self.successes += ok
        if in_window:
            self.window_attempts += 1
            self.window_successes += ok

    def to_dict(self, layer: Layer) -> dict:
        def ratio(successes: int, attempts: int) -> float:
            return round(successes / attempts, 4) if attempts else 1.0
        return {
            "layer": layer.name.lower(),
            "attempts": self.attempts,
            "successes": self.successes,
            "availability": ratio(self.successes, self.attempts),
            "windowAttempts": self.window_attempts,
            "windowSuccesses": self.window_successes,
            "windowAvailability": ratio(self.window_successes,
                                        self.window_attempts),
        }


def _build_cloud() -> CloudService:
    service = CloudService("telemetry-backend")
    service.add_endpoint(Endpoint("/telemetry", auth_required=False,
                                  response_tag="telemetry-batch"))
    return service


def run_chaos_scenario(name: str, plan: FaultPlan, *, base_seed: int = 0,
                       duration: int = DEFAULT_DURATION) -> dict:
    """Run one scenario under ``plan`` and return its result document."""
    harness = open_scenario(name, plan, base_seed, duration)
    scenario, injector, clock = harness.scenario, harness.injector, harness.clock
    manager, breaker = harness.manager, harness.breaker
    retry_rng = python_rng(f"chaos/{plan.name}/{name}/retry", base_seed)
    retry_policy = RetryPolicy(max_attempts=3, base_delay_s=0.05,
                               factor=2.0, max_delay_s=0.2, jitter=0.1)
    retry_stats = RetryStats()
    # Only a scenario with an IDS raises alerts for the response engine.
    engine = harness.response if scenario.has_ids else None
    cloud = _build_cloud() if "cloud" in scenario.subsystems else None

    resolver: CachingResolver | None = None
    now = {"t": 0.0}  # shared with the registry-outage predicate
    if "ssi" in scenario.subsystems:
        registry, did = did_registry()
        resolver = CachingResolver(registry, unavailable=lambda: injector.fires(
            REGISTRY_DOWN, "did-registry", now["t"]))

    window_start, window_end = harness.window
    tallies = {name_: _Tally() for name_ in scenario.subsystems}
    babbler_isolated = False
    floor_cleared = False

    # -- per-tick subsystem operations --------------------------------------

    def phy_op(t: float) -> None:
        if injector.fires(CORRUPTION, "uwb-anchor", t):
            magnitude = injector.magnitude(CORRUPTION, "uwb-anchor", t)
            burst = injector.corruption_noise(CORRUPTION, "uwb-anchor", 8,
                                              magnitude)
            raise _OpFailed(
                f"ranging samples corrupted ({float(np.abs(burst).mean()):.2f} m)")
        if injector.fires(NLOS, "uwb-anchor", t):
            raise _OpFailed("NLOS burst: first path buried")

    def ivn_op(t: float, babbling: bool) -> None:
        if babbling and not babbler_isolated:
            raise _OpFailed("bus saturated by babbling ECU")
        if injector.fires(FRAME_DROP, "zonal-can", t):
            raise _OpFailed("frame dropped")
        if injector.fires(BIT_FLIP, "zonal-can", t):
            raise _OpFailed("frame corrupted by bit flip")

    def cloud_op(t: float) -> str:
        assert cloud is not None
        if injector.fires(OUTAGE, "telemetry-backend", t):
            raise ServiceUnavailable("injected 5xx outage")
        if injector.fires(TIMEOUT, "telemetry-backend", t):
            raise CloudTimeout("injected timeout")
        if injector.fires(LATENCY, "telemetry-backend", t):
            raise CloudTimeout("latency spike past deadline")
        return cloud.fetch("/telemetry")

    def attempt(op: Callable[[float], None], t: float,
                retry_on: tuple[type[BaseException], ...]) -> bool:
        """Run one subsystem op, with retries when the scenario has them."""
        if not scenario.resilient:
            try:
                op(t)
            except retry_on:
                return False
            return True
        try:
            retry_with_backoff(lambda: op(t), policy=retry_policy,
                               rng=retry_rng, clock=VirtualClock(),
                               retry_on=retry_on, stats=retry_stats)
        except retry_on:
            return False
        return True

    # -- the campaign loop ---------------------------------------------------

    for tick in range(duration):
        t = float(tick)
        clock.now = t
        now["t"] = t
        in_window = window_start <= t < window_end

        if "phy" in tallies:
            ok = attempt(phy_op, t, (_OpFailed,))
            tallies["phy"].add(ok, in_window)
            manager.report("phy", ok)

        if "ivn" in tallies:
            babbling = injector.fires(BABBLING, "ecu-babbler", t)
            ok = attempt(lambda u: ivn_op(u, babbling), t, (_OpFailed,))
            tallies["ivn"].add(ok, in_window)
            manager.report("ivn", ok)
            if babbling and engine is not None and not babbler_isolated:
                engine.handle(SecurityAlert(
                    time=t, layer=Layer.NETWORK, component="ecu-babbler",
                    attack_name="babbling-idiot", severity=Severity.CRITICAL))
                babbler_isolated = True  # IDS isolates; effective next tick

        if cloud is not None:
            if breaker is not None:
                try:
                    breaker.call(lambda: retry_with_backoff(
                        lambda: cloud_op(t), policy=retry_policy,
                        rng=retry_rng, clock=VirtualClock(),
                        retry_on=(TransientCloudError,), stats=retry_stats))
                    ok = True
                except (TransientCloudError, BreakerOpen):
                    ok = False
            else:
                try:
                    cloud_op(t)
                    ok = True
                except TransientCloudError:
                    ok = False
            tallies["cloud"].add(ok, in_window)
            manager.report("cloud", ok)

        if resolver is not None:
            try:
                resolver.resolve(did)
                ok = True
            except RegistryUnavailable:
                ok = False
            tallies["ssi"].add(ok, in_window)
            manager.report("ssi", ok)

        manager.tick(t)

        # Once the fault window has closed, a hardened deployment clears
        # the response-imposed floor (the isolated ECU was re-flashed and
        # forensically cleared), letting recovery ticks climb to FULL.
        if (scenario.resilient and not floor_cleared and t >= window_end):
            manager.clear_response_floor()
            if engine is not None:
                engine.reset("ecu-babbler")
            floor_cleared = True

    return {
        **harness.entry(),
        "layers": [tallies[name_].to_dict(SUBSYSTEM_LAYER[name_])
                   for name_ in scenario.subsystems],
        "faults": {"injected": injector.count,
                   "byKind": injector.count_by_kind()},
        "retry": retry_stats.to_dict(),
        "breakers": [breaker.to_dict()] if breaker is not None else [],
        "ssi": resolver.to_dict() if resolver is not None else None,
        "alerts": len(engine.decisions) if engine is not None else 0,
        "degradation": manager.to_dict(),
    }


def run_chaos_campaign(scenarios: list[str], plan_name: str, *,
                       base_seed: int = 0,
                       duration: int = DEFAULT_DURATION) -> dict:
    """Run several scenarios under one plan and assemble the report doc."""
    return campaign_document(run_chaos_scenario, chaos_summary,
                             version=SCHEMA_VERSION, tool=TOOL_NAME,
                             scenarios=scenarios, plan_name=plan_name,
                             base_seed=base_seed, duration=duration)
