"""Typed fault taxonomy and deterministic fault plans.

The paper's fail-operational argument (§VIII) is only testable against
*injected* failures: a resilience mechanism that has never seen a fault
is a hypothesis, not a defense.  This module names the faults the
reproduction can inject — one vocabulary entry per failure mode the
layer simulators exhibit in the wild — and packages them into
:class:`FaultPlan` campaigns: windowed, probabilistic schedules that are
fully determined by ``(plan name, base seed)`` through
:mod:`repro.core.rng`.

A :class:`FaultSpec` is *where/when/how hard*: the fault kind, the
component it targets, the ``[start, end)`` window on the campaign's
virtual clock, a per-opportunity firing probability, and a magnitude
knob whose meaning is kind-specific (noise amplitude, consumed-budget
fraction, ...).  Two shipped plans anchor the chaos CLI and CI gates:
``baseline`` (the recoverable weather every deployment must shrug off)
and ``severe`` (the sustained campaign that forces the degradation
ladder all the way down on unhardened scenarios).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.core.layers import Layer

__all__ = ["FaultKind", "FaultSpec", "FaultPlan", "KIND_LAYER", "DEFAULT_DURATION",
           "baseline_plan", "severe_plan", "get_plan", "plan_names", "PLANS"]

#: Campaign length in virtual-clock ticks (seconds) for plan-driven runs.
DEFAULT_DURATION = 30


class FaultKind(str, Enum):
    """The vocabulary of injectable faults, one per layer failure mode."""

    # physical layer (repro.phy)
    PHY_SAMPLE_CORRUPTION = "phy-sample-corruption"
    PHY_NLOS_BURST = "phy-nlos-burst"
    # in-vehicle network (repro.ivn)
    IVN_FRAME_DROP = "ivn-frame-drop"
    IVN_BIT_FLIP = "ivn-bit-flip"
    IVN_BABBLING_IDIOT = "ivn-babbling-idiot"
    # cloud backend (repro.datalayer)
    CLOUD_LATENCY = "cloud-latency-spike"
    CLOUD_TIMEOUT = "cloud-timeout"
    CLOUD_OUTAGE = "cloud-outage-5xx"
    # identity plane (repro.ssi)
    SSI_REGISTRY_DOWN = "ssi-registry-unavailable"
    # campaign workers, experiment shards included (repro.campaign)
    RUNNER_WORKER_CRASH = "runner-worker-crash"
    RUNNER_WORKER_HANG = "runner-worker-hang"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: The paper layer each fault kind lives on (drives event tagging).
KIND_LAYER: dict[FaultKind, Layer] = {
    FaultKind.PHY_SAMPLE_CORRUPTION: Layer.PHYSICAL,
    FaultKind.PHY_NLOS_BURST: Layer.PHYSICAL,
    FaultKind.IVN_FRAME_DROP: Layer.NETWORK,
    FaultKind.IVN_BIT_FLIP: Layer.NETWORK,
    FaultKind.IVN_BABBLING_IDIOT: Layer.NETWORK,
    FaultKind.CLOUD_LATENCY: Layer.DATA,
    FaultKind.CLOUD_TIMEOUT: Layer.DATA,
    FaultKind.CLOUD_OUTAGE: Layer.DATA,
    FaultKind.SSI_REGISTRY_DOWN: Layer.SOFTWARE_PLATFORM,
    FaultKind.RUNNER_WORKER_CRASH: Layer.SYSTEM_OF_SYSTEMS,
    FaultKind.RUNNER_WORKER_HANG: Layer.SYSTEM_OF_SYSTEMS,
}


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: kind, target, window, intensity.

    Attributes:
        kind: the fault vocabulary entry.
        target: the component the fault hits (bus name, service name,
            DID registry, experiment id, ...).
        start: first virtual-clock instant the fault is armed (inclusive).
        end: instant the fault disarms (exclusive).
        probability: chance the fault fires per opportunity inside the
            window (drawn from the injector's per-``(kind, target)``
            seeded stream).
        magnitude: kind-specific intensity (noise amplitude for sample
            corruption, ...).
    """

    kind: FaultKind
    target: str
    start: float
    end: float
    probability: float = 1.0
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("fault window must satisfy start < end")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.magnitude < 0.0:
            raise ValueError("magnitude must be non-negative")

    def active(self, t: float) -> bool:
        """Is the fault armed at virtual instant ``t``?"""
        return self.start <= t < self.end

    def to_dict(self) -> dict:
        """JSON-ready representation (stable key order)."""
        return {
            "kind": self.kind.value,
            "target": self.target,
            "layer": KIND_LAYER[self.kind].name.lower(),
            "start": self.start,
            "end": self.end,
            "probability": self.probability,
            "magnitude": self.magnitude,
        }


@dataclass(frozen=True)
class FaultPlan:
    """A named, ordered campaign of fault specs."""

    name: str
    specs: tuple[FaultSpec, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a fault plan needs a name")

    def __len__(self) -> int:
        return len(self.specs)

    def for_kind(self, kind: FaultKind) -> tuple[FaultSpec, ...]:
        return tuple(s for s in self.specs if s.kind == kind)

    def window(self) -> tuple[float, float]:
        """The hull ``[earliest start, latest end)`` over all specs."""
        if not self.specs:
            return (0.0, 0.0)
        return (min(s.start for s in self.specs),
                max(s.end for s in self.specs))

    def to_dict(self) -> dict:
        start, end = self.window()
        return {
            "name": self.name,
            "window": {"start": start, "end": end},
            "faults": [spec.to_dict() for spec in self.specs],
        }


def baseline_plan() -> FaultPlan:
    """The recoverable weather: windowed, partial-probability faults.

    The hardened scenario must ride this out without ever dropping
    below DEGRADED, and must climb back to FULL once the window closes
    (the CI gate pins both).
    """
    return FaultPlan("baseline", (
        FaultSpec(FaultKind.PHY_SAMPLE_CORRUPTION, "uwb-anchor", 8.0, 20.0,
                  probability=0.5, magnitude=2.5),
        FaultSpec(FaultKind.PHY_NLOS_BURST, "uwb-anchor", 10.0, 16.0,
                  probability=0.4),
        FaultSpec(FaultKind.IVN_FRAME_DROP, "zonal-can", 8.0, 20.0,
                  probability=0.35),
        FaultSpec(FaultKind.IVN_BIT_FLIP, "zonal-can", 8.0, 20.0,
                  probability=0.25),
        FaultSpec(FaultKind.IVN_BABBLING_IDIOT, "ecu-babbler", 9.0, 12.0,
                  probability=1.0),
        FaultSpec(FaultKind.CLOUD_LATENCY, "telemetry-backend", 8.0, 14.0,
                  probability=0.6),
        FaultSpec(FaultKind.CLOUD_OUTAGE, "telemetry-backend", 14.0, 19.0,
                  probability=1.0),
        FaultSpec(FaultKind.SSI_REGISTRY_DOWN, "did-registry", 8.0, 18.0,
                  probability=1.0),
        FaultSpec(FaultKind.RUNNER_WORKER_CRASH, "sweep-worker", 0.0, 1.0,
                  probability=1.0, magnitude=0.4),
    ))


def severe_plan() -> FaultPlan:
    """The sustained campaign: wider windows, near-certain faults.

    Scenarios without retry/breaker/degradation machinery must end up
    at MINIMAL_RISK or SAFE_STOP under this plan (acceptance gate).
    """
    return FaultPlan("severe", (
        FaultSpec(FaultKind.PHY_SAMPLE_CORRUPTION, "uwb-anchor", 5.0, 25.0,
                  probability=0.9, magnitude=4.0),
        FaultSpec(FaultKind.PHY_NLOS_BURST, "uwb-anchor", 5.0, 25.0,
                  probability=0.8),
        FaultSpec(FaultKind.IVN_FRAME_DROP, "zonal-can", 5.0, 25.0,
                  probability=0.7),
        FaultSpec(FaultKind.IVN_BIT_FLIP, "zonal-can", 5.0, 25.0,
                  probability=0.5),
        FaultSpec(FaultKind.IVN_BABBLING_IDIOT, "ecu-babbler", 6.0, 18.0,
                  probability=1.0),
        FaultSpec(FaultKind.CLOUD_LATENCY, "telemetry-backend", 5.0, 12.0,
                  probability=0.9),
        FaultSpec(FaultKind.CLOUD_OUTAGE, "telemetry-backend", 12.0, 25.0,
                  probability=1.0),
        FaultSpec(FaultKind.SSI_REGISTRY_DOWN, "did-registry", 5.0, 25.0,
                  probability=1.0),
        FaultSpec(FaultKind.RUNNER_WORKER_CRASH, "sweep-worker", 0.0, 2.0,
                  probability=1.0, magnitude=0.7),
    ))


PLANS: dict[str, "FaultPlan"] = {}


def _register_plans() -> dict[str, FaultPlan]:
    if not PLANS:
        for plan in (baseline_plan(), severe_plan()):
            PLANS[plan.name] = plan
    return PLANS


def plan_names() -> list[str]:
    return list(_register_plans())


def get_plan(name: str) -> FaultPlan:
    """Look up a shipped plan by name; raises ``KeyError`` when unknown."""
    plans = _register_plans()
    try:
        return plans[name]
    except KeyError:
        raise KeyError(f"unknown fault plan {name!r}; "
                       f"available: {', '.join(plans)}") from None
