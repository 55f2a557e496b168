"""AUD007 — every ``report.py`` follows the house schema conventions.

Each analyzer package publishes its results through a ``report.py``
that (a) pins a module-level ``*SCHEMA_VERSION`` string, (b) names
itself via a module-level ``*TOOL_NAME`` string, and (c) ships at
least one ``validate_*_dict`` function that round-trips the JSON shape
by declaring a spec with ``repro/core/schema.py`` and handing it to
``repro.core.schema.validate`` (the checker looks for that call, under
whatever name the module imports it).  Those three artifacts are
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


def _validators(tree: ast.Module) -> list[ast.FunctionDef]:
    return [stmt for stmt in tree.body
            if isinstance(stmt, ast.FunctionDef)
            and stmt.name.startswith("validate_")
            and stmt.name.endswith("_dict")]


def _calls_schema_validate(module: ModuleInfo,
                           function: ast.FunctionDef) -> bool:
    """Does ``function`` call ``repro.core.schema.validate``, under any
    name this module imports it (or ``repro.core.schema``) as?"""
    functions: set[str] = set()
    modules = {"repro.core.schema"}
    for node in module.nodes:
        if isinstance(node, ast.ImportFrom) \
                and node.module == "repro.core.schema":
            functions.update(a.asname or a.name for a in node.names
                             if a.name == "validate")
        elif isinstance(node, ast.ImportFrom) and node.module == "repro.core":
            modules.update(a.asname or a.name for a in node.names
                           if a.name == "schema")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro.core.schema" and alias.asname:
                    modules.add(alias.asname)
    calls = [node.func for node in ast.walk(function)
             if isinstance(node, ast.Call)]
    return any((isinstance(f, ast.Name) and f.id in functions)
               or (isinstance(f, ast.Attribute) and f.attr == "validate"
                   and ast.unparse(f.value) in modules)
               for f in calls)


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
        validators = _validators(module.tree)
        if not validators:
            yield self.finding(
                module, 1,
                "no validate_*_dict function — the published JSON shape "
                "is unvalidatable")
        elif not any(_calls_schema_validate(module, f) for f in validators):
            yield self.finding(
                module, validators[0].lineno,
                f"{validators[0].name} never calls "
                "repro.core.schema.validate — the JSON shape is checked by "
                "hand, not against a schema spec")
