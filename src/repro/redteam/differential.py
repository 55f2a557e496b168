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

:func:`differential_violations` evaluates all three over one target's
:class:`~repro.lint.engine.Analysis` — its one taint analysis and one
attack plan — and returns human-readable violation strings (empty ==
analyzers agree); ``python -m repro redteam --differential`` runs it
per scenario as the CLI/CI gate.
"""

from __future__ import annotations

from repro.flow.taint import FlowResult
from repro.lint.engine import Analysis

from repro.redteam.planner import PlanResult

__all__ = ["differential_violations"]


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


def _first_hop_flagged(analysis: Analysis) -> list[str]:
    from repro.flow.rules import FLOW_RULES
    from repro.lint.rules import CATALOG

    planned = analysis.plan
    if not planned.campaigns:
        return []
    source_names = {n.name for n in analysis.flow.graph.sources()}
    # the lint view without the RT family, which would satisfy itself
    flagged_text = [f"{f.subject} {f.message}"
                    for rule in CATALOG + FLOW_RULES
                    for f in rule.run(analysis)]
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


def differential_violations(analysis: Analysis) -> list[str]:
    """All analyzer disagreements for one target (empty == agreement),
    read from its analysis's ``flow`` and ``plan``."""
    violations = _witness_implies_campaign(analysis.flow, analysis.plan)
    violations += _clean_iff_defeated(analysis.flow, analysis.plan)
    violations += _first_hop_flagged(analysis)
    return violations
