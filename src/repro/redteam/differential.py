"""Differential gates: the three static analyzers must agree.

The repo now carries three independent static views of the same target:
rule checks (:mod:`repro.lint`), taint witnesses (:mod:`repro.flow`),
and planned campaigns (:mod:`repro.redteam`).  Each can be wrong alone;
together they cross-check.  This module turns *disagreement between
analyzers* into a first-class, CI-failing bug class via three
properties:

1. **witness ⇒ campaign** — every flow path witness implies at least
   one planner-reachable campaign to the same sink (the planner's
   movement attacks are built from the same open edges the taint walks,
   so a witnessed sink the planner cannot reach means the attack
   library has a hole);
2. **clean ⇔ defeated** — a path-clean target admits zero campaigns,
   and conversely every campaign's sink is either flow-witnessed or is
   itself an untrusted flow source (a sink that doubles as a source
   needs no path, so flow legitimately emits no witness for it);
3. **first hop flagged** — every campaign's entry node is already
   flagged by the *other* analyzers: it is a flow-graph source, or it
   is named by a lint finding from the non-RT catalog.  (RT rules are
   deliberately excluded: including them would make the check
   self-satisfying.)

:func:`differential_violations` evaluates all three for one target and
returns human-readable violation strings (empty == analyzers agree);
:func:`run_differential` sweeps scenarios for the CLI/CI gate.
"""

from __future__ import annotations

from typing import Sequence

from repro.flow.taint import FlowResult, analyze
from repro.lint.engine import Linter
from repro.lint.target import AnalysisTarget

from repro.redteam.planner import PlanResult, plan

__all__ = ["differential_violations", "run_differential"]


def _witness_implies_campaign(flow: FlowResult,
                              planned: PlanResult) -> list[str]:
    violations = []
    reachable = planned.campaign_sinks()
    for sink in sorted({w.sink for w in flow.witnesses}):
        if sink not in reachable:
            violations.append(
                f"witness=>campaign: flow proves a path to {sink!r} but "
                f"the planner finds no campaign reaching it")
    return violations


def _clean_iff_defeated(flow: FlowResult, planned: PlanResult) -> list[str]:
    violations = []
    if flow.path_clean and not planned.defeated:
        sinks = ", ".join(sorted(planned.campaign_sinks()))
        violations.append(
            f"clean<=>defeated: flow says PATH-CLEAN but the planner "
            f"reaches: {sinks}")
    witnessed = {w.sink for w in flow.witnesses}
    source_names = {n.name for n in flow.graph.sources()}
    for campaign in planned.campaigns:
        if campaign.sink in witnessed or campaign.sink in source_names:
            continue
        violations.append(
            f"clean<=>defeated: campaign reaches {campaign.sink!r} but "
            f"flow has no witness for it and the sink is not itself an "
            f"untrusted source")
    return violations


def _first_hop_flagged(target: AnalysisTarget, flow: FlowResult,
                       planned: PlanResult) -> list[str]:
    from repro.flow.rules import FLOW_RULES
    from repro.lint.rules import CATALOG

    if not planned.campaigns:
        return []
    source_names = {n.name for n in flow.graph.sources()}
    # the lint view without the RT family, which would satisfy itself
    report = Linter(CATALOG + FLOW_RULES).run(target)
    flagged_text = [f"{f.subject} {f.message}" for f in report.findings]
    violations = []
    for campaign in planned.campaigns:
        entry = campaign.entry_node
        if entry in source_names:
            continue
        if any(entry in text for text in flagged_text):
            continue
        violations.append(
            f"first-hop-flagged: campaign to {campaign.sink!r} enters at "
            f"{entry!r}, which neither flow (not a source) nor lint "
            f"(no finding names it) flags")
    return violations


def differential_violations(target: AnalysisTarget, flow: FlowResult,
                            planned: PlanResult) -> list[str]:
    """All analyzer disagreements for one target (empty == agreement),
    given its taint analysis and the plan seeded with it."""
    violations = _witness_implies_campaign(flow, planned)
    violations += _clean_iff_defeated(flow, planned)
    violations += _first_hop_flagged(target, flow, planned)
    return violations


def run_differential(names: Sequence[str]) -> dict[str, list[str]]:
    """Scenario name -> violations, for the CLI/CI differential gate."""
    from repro.lint.scenarios import build_scenario

    violations: dict[str, list[str]] = {}
    for name in names:
        target = build_scenario(name)
        flow = analyze(target)
        violations[name] = differential_violations(target, flow,
                                                   plan(target, flow))
    return violations
