"""AUD007 — every ``report.py`` follows the house schema conventions.

Each analyzer package publishes its results through a ``report.py``
that (a) pins a module-level ``*SCHEMA_VERSION`` string, (b) names
itself via a module-level ``*TOOL_NAME`` string, and (c) ships at
least one ``validate_*_dict`` function that round-trips the JSON shape
by declaring a spec with ``repro/core/schema.py`` and handing it to
``repro.core.schema.validate``.  Those three artifacts are
what let downstream consumers — CI jobs, the flow analyzer, external
dashboards — detect schema drift instead of silently misparsing.  A
``report.py`` missing any of them is publishing an unversioned,
unvalidatable format.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import Severity

from repro.audit.context import AuditContext, ModuleInfo
from repro.audit.engine import AuditFinding, Checker, register


def _module_level_names(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
    return names


def _has_validator(tree: ast.Module) -> bool:
    return any(
        isinstance(stmt, ast.FunctionDef)
        and stmt.name.startswith("validate_")
        and stmt.name.endswith("_dict")
        for stmt in tree.body
    )


@register
class ReportSchemaConventions(Checker):
    rule_id = "AUD007"
    title = "report module missing schema-version/tool-name/validator"
    severity = Severity.MEDIUM
    remediation = ("pin `*SCHEMA_VERSION` and `*TOOL_NAME` constants and "
                   "ship a `validate_*_dict` function that checks a spec "
                   "built with repro/core/schema.py")

    def check(self, context: AuditContext) -> Iterator[AuditFinding]:
        for module in context.modules:
            if module.name != "report":
                continue
            yield from self._check_report_module(module)

    def _check_report_module(
            self, module: ModuleInfo) -> Iterator[AuditFinding]:
        names = _module_level_names(module.tree)
        if not any(n.endswith("SCHEMA_VERSION") for n in names):
            yield self.finding(
                module, 1,
                "no module-level *SCHEMA_VERSION constant — consumers "
                "cannot detect schema drift")
        if not any(n.endswith("TOOL_NAME") for n in names):
            yield self.finding(
                module, 1,
                "no module-level *TOOL_NAME constant — SARIF/JSON output "
                "cannot attribute its producer")
        if not _has_validator(module.tree):
            yield self.finding(
                module, 1,
                "no validate_*_dict function — the published JSON shape "
                "is unvalidatable")
