"""The RT rule family: planner findings surfaced through the linter.

Each rule is a function of the run's one
:class:`~repro.redteam.planner.PlanResult`:
:class:`~repro.lint.engine.Linter` plans the attack campaign for the
target (:func:`repro.redteam.planner.plan`, seeded with the run's one
taint analysis) once per run and hands the plan to every RT rule, which
reports through the ordinary lint machinery, so RT findings baseline,
fingerprint, gate, and serialize exactly like every other rule family.
Subjects are stable ``entry=>sink`` labels; messages carry the ranked
hop-by-hop campaign with the defense that would break each step,
because a campaign finding without its chain is unactionable.

``repro.lint.rules`` extends these into the shared ``CATALOG`` through
the lazy ``full_catalog()``; this module must therefore never import
``repro.lint.rules`` (only the engine) or the catalog would cycle.
"""

from __future__ import annotations

from functools import partial
from typing import Iterator

from repro.core.layers import Layer
from repro.flow.graph import SINK_CRITICALITY
from repro.lint.engine import Rule, Severity, rule

from repro.redteam.planner import Campaign, PlanResult

__all__ = ["RT_RULES"]

RT_RULES: list[Rule] = []
_rule = partial(rule, RT_RULES, reads="plan")


def _campaign_message(campaign: Campaign, *, verb: str) -> str:
    lines = [f"ranked campaign {verb} {campaign.sink!r} in "
             f"{len(campaign.steps)} step(s), total cost "
             f"{campaign.total_cost:g}"]
    lines += [f"  {line}" for line in campaign.describe()]
    return "\n".join(lines)


def _subject(campaign: Campaign) -> str:
    return f"{campaign.entry_node}=>{campaign.sink}"


@_rule("RT001", "attack campaign compromises safety-critical component",
       layer=Layer.NETWORK, severity=Severity.CRITICAL,
       paper_ref="§III / §VIII",
       remediation="break the cheapest step: every hop lists the defense "
                   "that defeats it; deploying any one severs the chain")
def rt_campaign_reaches_critical(result: PlanResult) -> Iterator[tuple[str, str]]:
    for campaign in result.campaigns:
        node = result.graph.node(campaign.sink)
        if node.kind != "component" or node.criticality < SINK_CRITICALITY:
            continue
        yield _subject(campaign), _campaign_message(campaign,
                                                    verb="compromises")


@_rule("RT002", "attack campaign reaches personal-data store",
       layer=Layer.DATA, severity=Severity.HIGH,
       paper_ref="§V / Fig. 8",
       remediation="require authentication on the entry endpoint and move "
                   "bucket-unlocking secrets out of process memory")
def rt_campaign_reaches_datastore(result: PlanResult) -> Iterator[tuple[str, str]]:
    for campaign in result.campaigns:
        node = result.graph.node(campaign.sink)
        if node.kind != "datastore":
            continue
        yield _subject(campaign), _campaign_message(campaign,
                                                    verb="exfiltrates")


@_rule("RT003", "safety-critical ECU can be forced off the bus",
       layer=Layer.NETWORK, severity=Severity.MEDIUM,
       paper_ref="§III",
       remediation="authenticate the shared segment and deploy a bus "
                   "guardian / IDS isolation response for error-frame abuse")
def rt_sink_disruptable(result: PlanResult) -> Iterator[tuple[str, str]]:
    for campaign in result.disruptions:
        yield _subject(campaign), _campaign_message(campaign, verb="disrupts")


@_rule("RT004", "multi-stage campaign crosses architecture layers",
       layer=Layer.SYSTEM_OF_SYSTEMS, severity=Severity.MEDIUM,
       paper_ref="§VIII",
       remediation="defend in depth: a single-layer defense cannot break a "
                   "chain that hops layers; harden one step at each layer "
                   "the campaign crosses")
def rt_cross_layer_campaign(result: PlanResult) -> Iterator[tuple[str, str]]:
    for campaign in result.campaigns:
        if not campaign.multi_stage or len(campaign.layers) < 2:
            continue
        yield (_subject(campaign),
               f"campaign to {campaign.sink!r} crosses "
               f"{len(campaign.layers)} layers "
               f"({', '.join(campaign.layers)}) in "
               f"{len(campaign.steps)} steps — "
               + _campaign_message(campaign, verb="compromises"))
