"""The fault-scenario harness shared by chaos and sentinel campaigns.

:mod:`repro.faults.chaos` and :mod:`repro.sentinel.campaign` run the
same five scenarios under the same fault plans and differ only in what
their per-tick loops do.  Every other fault-campaign decision lives
here, once:

* :func:`open_scenario` — the scenario lookup and the duration check,
  then a :class:`FaultScenario` holding the injector, the clock, the
  response engine, the degradation ladder configured from the
  :class:`~repro.lint.scenarios.Scenario` record, the telemetry-backend
  circuit breaker and the fault window;
* :func:`did_registry` — the DID registry fixture the identity plane
  resolves against;
* the :class:`~repro.faults.plan.FaultKind` members the tick loops fire;
* :func:`campaign_document` — the report document around the
  per-scenario entries, each of which opens with
  :meth:`FaultScenario.entry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro import __version__
from repro.core.layers import Layer
from repro.core.response import ResponseEngine
from repro.faults.degradation import DegradationManager
from repro.faults.injector import FaultInjector
from repro.faults.plan import KIND_LAYER, FaultKind, FaultPlan, get_plan
from repro.faults.resilience import CircuitBreaker, VirtualClock
from repro.lint.scenarios import Scenario, get_scenario
from repro.ssi.did import Did, DidDocument, KeyPair
from repro.ssi.registry import VerifiableDataRegistry

__all__ = ["FaultScenario", "open_scenario", "did_registry", "fault_window",
           "campaign_document", "SUBSYSTEM_LAYER"]

#: Subsystem name -> the paper layer it runs on.  Its availability is
#: booked under that layer, and the plan's faults of that layer's kinds
#: (:data:`~repro.faults.plan.KIND_LAYER`) open its fault window.
SUBSYSTEM_LAYER = {
    "phy": Layer.PHYSICAL,
    "ivn": Layer.NETWORK,
    "cloud": Layer.DATA,
    "ssi": Layer.SOFTWARE_PLATFORM,
}

# The members the tick loops fire, resolved once: an enum class
# attribute costs a slow lookup per use.
CORRUPTION = FaultKind.PHY_SAMPLE_CORRUPTION
NLOS = FaultKind.PHY_NLOS_BURST
BABBLING = FaultKind.IVN_BABBLING_IDIOT
FRAME_DROP = FaultKind.IVN_FRAME_DROP
BIT_FLIP = FaultKind.IVN_BIT_FLIP
OUTAGE = FaultKind.CLOUD_OUTAGE
TIMEOUT = FaultKind.CLOUD_TIMEOUT
LATENCY = FaultKind.CLOUD_LATENCY
REGISTRY_DOWN = FaultKind.SSI_REGISTRY_DOWN


def fault_window(plan: FaultPlan,
                 subsystems: tuple[str, ...]) -> tuple[float, float]:
    """The hull of the plan's faults on the layers ``subsystems`` run on."""
    layers = {SUBSYSTEM_LAYER[name] for name in subsystems}
    specs = [spec for spec in plan.specs if KIND_LAYER[spec.kind] in layers]
    if not specs:
        return (0.0, 0.0)
    return (min(s.start for s in specs), max(s.end for s in specs))


@dataclass
class FaultScenario:
    """One scenario's fault-campaign fixtures, before its first tick.

    ``response`` is attached to ``manager``, so its escalations move the
    degradation ladder; ``breaker`` guards the telemetry backend of a
    resilient scenario with a cloud subsystem and is ``None`` otherwise.
    """

    scenario: Scenario
    duration: int
    injector: FaultInjector
    clock: VirtualClock
    response: ResponseEngine
    manager: DegradationManager
    breaker: CircuitBreaker | None
    window: tuple[float, float]

    def entry(self) -> dict:
        """The five fields that open the scenario's result entry."""
        scenario = self.scenario
        start, end = self.window
        return {
            "scenario": scenario.name,
            "description": scenario.description,
            "resilient": scenario.resilient,
            "durationTicks": self.duration,
            "window": {"start": start, "end": end},
        }


def open_scenario(name: str, plan: FaultPlan, base_seed: int,
                  duration: int) -> FaultScenario:
    """Look up scenario ``name`` and build its fixtures under ``plan``."""
    scenario = get_scenario(name)
    if duration < 1:
        raise ValueError("duration must be >= 1 tick")
    clock = VirtualClock()
    response = ResponseEngine(escalation_threshold=8)
    manager = DegradationManager(
        degrade_threshold=scenario.degrade_threshold,
        degrade_streak=scenario.degrade_streak,
        recovery_streak=scenario.recovery_streak,
        allow_recovery=scenario.allow_recovery)
    manager.attach(response)
    breaker: CircuitBreaker | None = None
    if "cloud" in scenario.subsystems and scenario.resilient:
        breaker = CircuitBreaker("telemetry-backend", clock=clock,
                                 failure_threshold=3, recovery_time_s=3.0)
    return FaultScenario(scenario, duration,
                         FaultInjector(plan, base_seed=base_seed), clock,
                         response, manager, breaker,
                         fault_window(plan, scenario.subsystems))


def did_registry() -> tuple[VerifiableDataRegistry, Did]:
    """A registry holding one vehicle DID, and that DID."""
    registry = VerifiableDataRegistry()
    did = Did("vehicle-7")
    registry.register(DidDocument.for_keypair(
        did, KeyPair.from_seed_label("chaos/vehicle-7")))
    return registry, did


def campaign_document(run_scenario: Callable[..., dict],
                      summary: Callable[[dict], dict], *, version: str,
                      tool: str, scenarios: list[str], plan_name: str,
                      base_seed: int, duration: int) -> dict:
    """Run ``scenarios`` under one plan and assemble the report document.

    ``run_scenario(name, plan, base_seed=, duration=)`` makes one entry;
    ``summary(document)`` fills the document's ``summary``.
    """
    plan = get_plan(plan_name)
    document = {
        "version": version,
        "tool": {"name": tool, "version": __version__},
        "plan": plan.to_dict(),
        "baseSeed": base_seed,
        "scenarios": [run_scenario(name, plan, base_seed=base_seed,
                                   duration=duration)
                      for name in scenarios],
    }
    document["summary"] = summary(document)
    return document
