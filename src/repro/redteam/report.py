"""Red-team campaign reports: renderers and a schema-validated document.

The JSON schema (version ``1.0``) mirrors the conventions of the other
static analyzers (:mod:`repro.lint.report`, flow's SARIF-lite)::

    {
      "version": "1.0",
      "tool": {"name": "repro-redteam", "version": "<package version>"},
      "baseSeed": <int>,
      "scenarios": [
        {
          "scenario": "<name>",
          "library": {"attacks": <int>, "entry": <int>,
                      "techniques": ["<technique>", ...]},
          "defeated": <bool>,
          "campaigns": [
            {"rank", "sink", "sinkKind", "entry", "totalCost",
             "multiStage", "layers",
             "steps": [{"attackId", "technique", "name", "layer",
                        "paperRef", "cost", "defense", "detail",
                        "grants"}]}
          ],
          "disruptions": [ <same shape as campaigns> ]
        }
      ],
      "summary": {"scenarioCount", "campaignCount",
                  "defeatedScenarios", "cheapest"}
    }

``baseSeed`` is carried verbatim: the planner is purely static, so the
seed never perturbs the output — BENCH-REDTEAM pins exactly that
(byte-identical documents per (scenario, base seed)).

The producer fills ``summary`` with :func:`redteam_summary` and the
validator checks it against the same function.
:func:`validate_redteam_dict` checks a parsed document against the
schema and raises :class:`~repro.core.schema.SchemaError` on any
violation, the same contract the CI gates rely on for lint and campaign
reports.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.layers import Layer
from repro.core.schema import (BOOL, COUNT, INT, NUMBER, STRING, TEXT, derived,
                               header, integer, join, leaf, list_of, number,
                               nullable, obj, one_of, require, validate)

from repro.redteam.planner import Campaign, PlanResult

__all__ = ["REDTEAM_SCHEMA_VERSION", "REDTEAM_TOOL_NAME",
           "campaign_to_dict", "scenario_to_dict", "redteam_document",
           "redteam_summary", "validate_redteam_dict", "render_summary",
           "render_campaigns"]

REDTEAM_SCHEMA_VERSION = "1.0"
REDTEAM_TOOL_NAME = "repro-redteam"


# --------------------------------------------------------------------------
# document construction
# --------------------------------------------------------------------------

def campaign_to_dict(campaign: Campaign, result: PlanResult,
                     rank: int) -> dict:
    """One ranked campaign as a JSON-ready object."""
    return {
        "rank": rank,
        "sink": campaign.sink,
        "sinkKind": result.graph.node(campaign.sink).kind,
        "entry": campaign.entry_node,
        "totalCost": campaign.total_cost,
        "multiStage": campaign.multi_stage,
        "layers": list(campaign.layers),
        "steps": [
            {
                "attackId": step.attack_id,
                "technique": step.technique,
                "name": step.name,
                "layer": step.layer.name.lower(),
                "paperRef": step.paper_ref,
                "cost": step.cost,
                "defense": step.defense,
                "detail": step.detail,
                "grants": [c.label for c in sorted(step.grants)],
            }
            for step in campaign.steps
        ],
    }


def scenario_to_dict(result: PlanResult) -> dict:
    """One planned scenario as a JSON-ready ``scenarios[]`` entry."""
    return {
        "scenario": result.scenario,
        "library": {
            "attacks": len(result.library),
            "entry": sum(1 for a in result.library if a.is_entry),
            "techniques": sorted({a.technique for a in result.library}),
        },
        "defeated": result.defeated,
        "campaigns": [campaign_to_dict(c, result, rank)
                      for rank, c in enumerate(result.campaigns, start=1)],
        "disruptions": [campaign_to_dict(c, result, rank)
                        for rank, c in enumerate(result.disruptions, start=1)],
    }


def redteam_document(results: Sequence[PlanResult], *,
                     base_seed: int) -> dict:
    """The full campaign document over already planned scenarios."""
    from repro import __version__

    document = {
        "version": REDTEAM_SCHEMA_VERSION,
        "tool": {"name": REDTEAM_TOOL_NAME, "version": __version__},
        "baseSeed": base_seed,
        "scenarios": [scenario_to_dict(r) for r in results],
    }
    document["summary"] = redteam_summary(document)
    return document


def redteam_summary(document: dict) -> dict:
    """The ``summary`` block, from the scenarios; ``cheapest`` breaks cost
    ties by scenario, then sink, and is ``null`` without campaigns."""
    scenarios = document["scenarios"]
    cheapest = min(((campaign["totalCost"], scenario["scenario"],
                     campaign["sink"])
                    for scenario in scenarios
                    for campaign in scenario["campaigns"]), default=None)
    return {
        "scenarioCount": len(scenarios),
        "campaignCount": sum(len(scenario["campaigns"])
                             for scenario in scenarios),
        "defeatedScenarios": sorted(scenario["scenario"]
                                    for scenario in scenarios
                                    if scenario["defeated"]),
        "cheapest": None if cheapest is None else {
            "scenario": cheapest[1], "sink": cheapest[2],
            "totalCost": cheapest[0]},
    }


# --------------------------------------------------------------------------
# plain-text renderers (CLI output)
# --------------------------------------------------------------------------

def render_summary(result: PlanResult) -> str:
    """One-paragraph overview: library size, verdict, cheapest campaign."""
    entry = sum(1 for a in result.library if a.is_entry)
    lines = [
        f"red-team plan for {result.scenario!r}:",
        f"  attack library: {len(result.library)} attack(s) "
        f"({entry} entry), "
        f"{len({a.technique for a in result.library})} technique(s)",
        f"  capabilities acquired: {len(result.acquired)}",
    ]
    if result.defeated:
        lines.append("  verdict: DEFEATED — no campaign reaches any sink")
    else:
        best = result.campaigns[0]
        lines.append(f"  verdict: {len(result.campaigns)} campaign(s), "
                     f"{len(result.disruptions)} disruption(s)")
        lines.append(f"  cheapest: {best.entry_node} => {best.sink} "
                     f"({len(best.steps)} step(s), cost {best.total_cost:g})")
    return "\n".join(lines)


def render_campaigns(result: PlanResult, *, top: int | None = None) -> str:
    """Every ranked campaign, hop by hop with the breaking defense."""
    if result.defeated and not result.disruptions:
        return (f"{result.scenario}: defeated — the full attack library "
                f"yields no campaign")
    blocks = []
    campaigns = result.campaigns if top is None else result.campaigns[:top]
    for rank, campaign in enumerate(campaigns, start=1):
        lines = [f"#{rank} {campaign.entry_node} => {campaign.sink} "
                 f"(cost {campaign.total_cost:g}, "
                 f"{len(campaign.steps)} step(s), "
                 f"layers: {', '.join(campaign.layers)})"]
        lines += [f"  {line}" for line in campaign.describe()]
        blocks.append("\n".join(lines))
    disruptions = (result.disruptions if top is None
                   else result.disruptions[:top])
    for rank, campaign in enumerate(disruptions, start=1):
        lines = [f"D{rank} {campaign.entry_node} =/> {campaign.sink} "
                 f"(availability, cost {campaign.total_cost:g})"]
        lines += [f"  {line}" for line in campaign.describe()]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


# --------------------------------------------------------------------------
# schema validation
# --------------------------------------------------------------------------

_LAYER = one_of({layer.name.lower() for layer in Layer})
_COST = number(0, exclusive=True)
_STEP = obj({
    "attackId": STRING, "technique": STRING, "name": STRING, "layer": _LAYER,
    "paperRef": STRING, "cost": _COST, "defense": STRING, "detail": STRING,
    "grants": list_of(leaf(lambda v: isinstance(v, str) and ":" in v,
                           "a 'kind:node' string"), nonempty=True),
})


def _check_campaign(entry: dict, where: str) -> None:
    require(entry["multiStage"] == (len(entry["steps"]) > 1), where,
            "multiStage inconsistent with len(steps)")
    total = sum(step["cost"] for step in entry["steps"])
    require(abs(total - entry["totalCost"]) < 1e-9, where,
            "totalCost must equal the sum of step costs")


_CAMPAIGN = obj({
    "rank": integer(1), "sink": TEXT, "entry": TEXT, "totalCost": _COST,
    "sinkKind": one_of({"component", "service", "endpoint", "datastore",
                        "actor", "channel"}),
    "multiStage": BOOL, "layers": list_of(_LAYER, nonempty=True),
    "steps": list_of(_STEP, nonempty=True),
}, check=_check_campaign)


def _check_scenario(entry: dict, where: str) -> None:
    require(entry["defeated"] == (not entry["campaigns"]), where,
            "defeated inconsistent with campaigns")
    for section in ("campaigns", "disruptions"):
        for index, campaign in enumerate(entry[section]):
            require(campaign["rank"] == index + 1,
                    join(join(where, section), index),
                    f"rank must be {index + 1}")


_SCENARIO = obj({
    "scenario": TEXT,
    "library": obj({"attacks": COUNT, "entry": COUNT,
                    "techniques": list_of(STRING)}),
    "defeated": BOOL,
    "campaigns": list_of(_CAMPAIGN),
    "disruptions": list_of(_CAMPAIGN),
}, check=_check_scenario)


_DOCUMENT = obj({
    **header(REDTEAM_SCHEMA_VERSION, REDTEAM_TOOL_NAME),
    "baseSeed": INT,
    "scenarios": list_of(_SCENARIO, nonempty=True),
    "summary": obj({
        "scenarioCount": COUNT, "campaignCount": COUNT,
        "defeatedScenarios": list_of(STRING),
        "cheapest": nullable(obj({"scenario": TEXT, "sink": TEXT,
                                  "totalCost": NUMBER})),
    }),
}, check=derived("summary", redteam_summary))


def validate_redteam_dict(document: dict) -> None:
    """Raise :class:`SchemaError` unless ``document`` matches the schema."""
    validate(document, _DOCUMENT)
