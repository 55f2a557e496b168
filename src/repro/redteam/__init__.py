"""Static attack-campaign planner with differential analyzer cross-checks.

The paper's central claim — compromises of autonomous systems are
multi-stage and cross-layer (§VIII) — is made executable here as the
third static analyzer of the repo: a typed per-layer attack library
(:mod:`repro.redteam.attacks`) searched by a deterministic best-first
planner (:mod:`repro.redteam.planner`) into ranked end-to-end
:class:`~repro.redteam.planner.Campaign` objects, hop by hop with the
defense that would break each step.  No simulation runs: attacks are
evaluated against the :class:`~repro.lint.target.AnalysisTarget` model
and the flow-graph protection lattice, so planning a whole scenario
costs milliseconds (BENCH-REDTEAM pins it).

Campaigns surface three ways: lint-family rules RT001–RT004
(:mod:`repro.redteam.rules`, joined into ``full_catalog()``), a
schema-validated JSON/SARIF report (:mod:`repro.redteam.report`), and
``python -m repro redteam``.  The differential layer
(:mod:`repro.redteam.differential`) then asserts the three analyzers
agree — flow witnesses imply campaigns, path-clean targets are
defeated, first hops are independently flagged — turning analyzer
disagreement into a CI-failing bug class.  Every entry point (RT rules,
CLI renderers, the JSON document, the differential gate) reads a
scenario's plan from its one :class:`~repro.lint.engine.Analysis`.
"""

from repro.redteam.attacks import TECHNIQUES, Attack, build_attack_library
from repro.redteam.capability import Capability
from repro.redteam.differential import differential_violations
from repro.redteam.planner import Campaign, plan
from repro.redteam.report import (
    redteam_document,
    render_campaigns,
    render_summary,
    scenario_to_dict,
    validate_redteam_dict,
)
from repro.redteam.rules import RT_RULES

__all__ = [
    "Attack",
    "Campaign",
    "Capability",
    "RT_RULES",
    "TECHNIQUES",
    "build_attack_library",
    "differential_violations",
    "plan",
    "redteam_document",
    "render_campaigns",
    "render_summary",
    "scenario_to_dict",
    "validate_redteam_dict",
]
