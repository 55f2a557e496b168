"""Deterministic best-first campaign planning over capability states.

The planner answers the paper's multi-stage question statically: *which
concrete sequence of attacks, at what total cost, carries an attacker
from outside the system to each safety-critical sink?*  It runs a
Dijkstra-style search over **capabilities** (not graph nodes): an
attack becomes enabled once every capability it requires has been
acquired, and then offers its grants at

    cost(attack) + sum(cost of each required capability)

— a documented approximation (prerequisites are priced independently;
a shared prerequisite is paid once per consumer during the search but
**counted once** in the reconstructed campaign, whose total is the sum
of its unique steps).  All tie-breaking is lexicographic, so identical
inputs always produce byte-identical campaign rankings — the property
BENCH-REDTEAM pins.

Goals come from the flow analyzer: every sink of the unified flow
graph, with the path witnesses of :func:`repro.flow.taint.analyze`
seeding the expectation that each witnessed sink must be planner-
reachable (the first differential gate).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.flow.graph import SINK_CRITICALITY, FlowGraph
from repro.flow.taint import FlowResult
from repro.lint.target import AnalysisTarget

from repro.redteam.attacks import Attack, build_attack_library
from repro.redteam.capability import Capability, control, disrupt

__all__ = ["Campaign", "PlanResult", "plan"]


@dataclass(frozen=True)
class Campaign:
    """One ranked end-to-end compromise: hop-by-hop attacks to a goal."""

    scenario: str
    goal: Capability
    steps: tuple[Attack, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("a campaign needs at least one step")

    @property
    def sink(self) -> str:
        return self.goal.node

    @property
    def total_cost(self) -> float:
        return sum(step.cost for step in self.steps)

    @property
    def entry(self) -> Attack:
        return self.steps[0]

    @property
    def entry_node(self) -> str:
        return self.entry.primary_grant.node

    @property
    def multi_stage(self) -> bool:
        return len(self.steps) > 1

    @property
    def layers(self) -> tuple[str, ...]:
        """Distinct Fig. 1 layers the campaign crosses, in stack order."""
        seen = sorted({step.layer for step in self.steps})
        return tuple(layer.name.lower() for layer in seen)

    def describe(self) -> list[str]:
        """Human-readable hop lines with the per-step breaking defense."""
        lines = []
        for index, step in enumerate(self.steps, start=1):
            granted = ", ".join(c.label for c in sorted(step.grants))
            lines.append(f"[{index}] {step.name} ({step.paper_ref}, "
                         f"cost {step.cost:g}) => {granted}")
            lines.append(f"    defeated by: {step.defense}")
        return lines


@dataclass
class PlanResult:
    """Everything the planner proved about one scenario."""

    scenario: str
    flow: FlowResult
    library: tuple[Attack, ...]
    #: capability -> cheapest acquisition cost found by the search.
    acquired: dict[Capability, float] = field(default_factory=dict)
    #: capability -> the attack through which it was (first) acquired.
    parents: dict[Capability, Attack] = field(default_factory=dict)
    #: ranked compromises: one per reachable control-sink, cheapest first.
    campaigns: list[Campaign] = field(default_factory=list)
    #: availability attacks: one per disruptable safety-critical sink.
    disruptions: list[Campaign] = field(default_factory=list)

    @property
    def graph(self) -> FlowGraph:
        return self.flow.graph

    @property
    def defeated(self) -> bool:
        """True when the full library yields no campaign to any sink."""
        return not self.campaigns

    def campaign_for(self, sink: str) -> Campaign | None:
        for campaign in self.campaigns:
            if campaign.sink == sink:
                return campaign
        return None

    def campaign_sinks(self) -> set[str]:
        return {campaign.sink for campaign in self.campaigns}


def _search(library: tuple[Attack, ...]) -> tuple[
        dict[Capability, float], dict[Capability, Attack]]:
    """Best-first acquisition: cheapest cost per capability + parents."""
    acquired: dict[Capability, float] = {}
    parents: dict[Capability, Attack] = {}
    #: how many requirements each attack still waits on
    waiting = {attack.attack_id: len(attack.requires) for attack in library}
    by_requirement: dict[Capability, list[Attack]] = {}
    for attack in library:
        for requirement in sorted(attack.requires):
            by_requirement.setdefault(requirement, []).append(attack)

    best: dict[Capability, tuple[float, str]] = {}
    heap: list[tuple[float, Capability]] = []

    def offer(capability: Capability, cost: float, attack: Attack) -> None:
        known = best.get(capability)
        if known is not None and (known[0], known[1]) <= (cost, attack.attack_id):
            return
        best[capability] = (cost, attack.attack_id)
        parents[capability] = attack
        heapq.heappush(heap, (cost, capability))

    def enable(attack: Attack) -> None:
        cost = attack.cost + sum(acquired[r] for r in attack.requires)
        for capability in sorted(attack.grants):
            offer(capability, cost, attack)

    for attack in library:
        if attack.is_entry:
            enable(attack)

    while heap:
        cost, capability = heapq.heappop(heap)
        if capability in acquired:
            continue
        if best[capability][0] < cost:
            continue  # stale entry; a cheaper offer superseded it
        acquired[capability] = cost
        for attack in by_requirement.get(capability, ()):
            waiting[attack.attack_id] -= 1
            if waiting[attack.attack_id] == 0:
                enable(attack)
    return acquired, parents


def _reconstruct(scenario: str, goal: Capability,
                 acquired: dict[Capability, float],
                 parents: dict[Capability, Attack]) -> Campaign | None:
    """Walk parent pointers back from ``goal`` into an ordered campaign.

    The closure may share prerequisites between steps; each attack
    appears once, ordered by the acquisition cost of the capability it
    was used to obtain (entry attacks first), with lexicographic
    tie-breaks for determinism.
    """
    if goal not in acquired:
        return None
    ordered: dict[str, tuple[float, Attack]] = {}
    stack = [goal]
    while stack:
        capability = stack.pop()
        attack = parents[capability]
        known = ordered.get(attack.attack_id)
        rank = acquired[capability]
        if known is None or rank < known[0]:
            ordered[attack.attack_id] = (rank, attack)
            stack.extend(sorted(attack.requires))
    steps = tuple(attack for _, attack in sorted(
        ordered.values(), key=lambda pair: (pair[0], pair[1].attack_id)))
    return Campaign(scenario=scenario, goal=goal, steps=steps)


def plan(target: AnalysisTarget, flow_result: FlowResult) -> PlanResult:
    """Full pipeline from the target's taint analysis: library, search,
    ranked campaigns."""
    library = build_attack_library(target, flow_result)
    acquired, parents = _search(library)
    plan_result = PlanResult(scenario=target.name, flow=flow_result,
                             library=library, acquired=acquired,
                             parents=parents)

    graph = flow_result.graph
    sinks = sorted(graph.sinks(), key=lambda n: n.name)
    for node in sinks:
        campaign = _reconstruct(target.name, control(node.name),
                                acquired, parents)
        if campaign is not None:
            plan_result.campaigns.append(campaign)
    plan_result.campaigns.sort(key=lambda c: (c.total_cost, c.sink))

    for node in sinks:
        if node.kind != "component" or node.criticality < SINK_CRITICALITY:
            continue
        disruption = _reconstruct(target.name, disrupt(node.name),
                                  acquired, parents)
        if disruption is not None:
            plan_result.disruptions.append(disruption)
    plan_result.disruptions.sort(key=lambda c: (c.total_cost, c.sink))
    return plan_result
