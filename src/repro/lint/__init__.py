"""``repro.lint`` — static security-configuration analysis (seclint).

The paper's §VIII argues that autonomous-system security must be
holistic: a misconfiguration at one layer silently undermines every
other layer's defenses.  This package audits a fully-configured system
*statically* — no simulation runs — against a catalog of ~25 rules
spanning all of Fig. 1's layers, and reports findings as a table or a
SARIF-style JSON document.

Quickstart::

    from repro.lint import AnalysisTarget, Linter, build_scenario

    report = Linter().run(build_scenario("onboard-insecure"))
    print(report.to_table())

CLI::

    python -m repro lint onboard-insecure            # table + exit code
    python -m repro lint cariad-breach --json        # SARIF-lite report
    python -m repro lint --rules                     # the rule catalog
"""

from repro.lint.baseline import Baseline, BaselineEntry
from repro.lint.engine import Analysis, Finding, Linter, Rule, Severity
from repro.lint.report import SchemaError, validate_report_dict
from repro.lint.rules import CATALOG, full_catalog, rules_by_id
from repro.lint.scenarios import SCENARIOS, build_scenario, get_scenario, scenario_names
from repro.lint.target import (AnalysisTarget, GatewayBinding,
                               V2xChannelBinding)

__all__ = [
    "Analysis",
    "AnalysisTarget",
    "Baseline",
    "BaselineEntry",
    "CATALOG",
    "Finding",
    "GatewayBinding",
    "Linter",
    "Rule",
    "SCENARIOS",
    "SchemaError",
    "Severity",
    "V2xChannelBinding",
    "build_scenario",
    "full_catalog",
    "get_scenario",
    "rules_by_id",
    "scenario_names",
    "validate_report_dict",
]
