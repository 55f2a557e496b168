"""AUD008 — layering: banned cross-package imports at module scope.

The repo's package graph mirrors the paper's Fig. 1 stack: ``core``
and ``crypto`` are foundations, the simulation packages (``ivn``,
``phy``, ``collab``, ``datalayer``, ``ssi``, ``sos``) model the system
under test, and the analyzers (``lint``, ``flow``, ``redteam``,
``faults``, ``sentinel``, ``audit``, ``campaign``) observe it.  The
arrows point one way — an analyzer importing another analyzer's
internals or a simulation importing its own watchdog creates the
exact coupling the threat-model layering exists to prevent, and it
tends to arrive as an import cycle six months later.

Policy (banned importer-package -> imported-package pairs):

* ``core`` imports no other repro package; ``crypto`` imports only
  ``core``;
* simulation packages import no analyzer;
* ``lint`` (the base analyzer others build on) imports no downstream
  analyzer (``flow``/``redteam``/``sentinel``/``audit``/``campaign``);
* ``obs`` (the instrumentation facade every hot path touches) imports
  no analyzer.

Function-scope imports and ``if TYPE_CHECKING:`` blocks are exempt —
they express a typing or late-binding dependency, not a load-time one.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import Severity

from repro.audit.context import AuditContext
from repro.audit.engine import AuditFinding, Checker, register

_SIM_PACKAGES = ("ivn", "phy", "collab", "datalayer", "ssi", "sos")
_ANALYZERS = ("lint", "flow", "redteam", "faults", "sentinel", "audit",
              "campaign")
_ALL_PACKAGES = ("core", "crypto", "obs") + _SIM_PACKAGES + _ANALYZERS

#: importer package -> packages it may NOT import at module scope.
_BANNED: dict[str, frozenset[str]] = {
    "core": frozenset(p for p in _ALL_PACKAGES if p != "core"),
    "crypto": frozenset(p for p in _ALL_PACKAGES
                        if p not in ("crypto", "core")),
    "obs": frozenset(_ANALYZERS),
    "lint": frozenset({"flow", "redteam", "sentinel", "audit", "campaign"}),
    **{sim: frozenset(_ANALYZERS) for sim in _SIM_PACKAGES},
}


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _module_scope_imports(tree: ast.Module) -> Iterator[ast.stmt]:
    """Import statements executed at module load time (skips function
    bodies, class bodies stay in — a class-scope import runs at load)."""
    stack: list[ast.stmt] = list(tree.body)
    while stack:
        stmt = stack.pop(0)
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            yield stmt
        elif isinstance(stmt, ast.If):
            if not _is_type_checking_test(stmt.test):
                stack.extend(stmt.body)
            stack.extend(stmt.orelse)
        elif isinstance(stmt, (ast.Try, ast.With)):
            for _, value in ast.iter_fields(stmt):
                if isinstance(value, list):
                    stack.extend(s for s in value if isinstance(s, ast.stmt))
        elif isinstance(stmt, ast.ClassDef):
            stack.extend(stmt.body)


def _imported_repro_packages(stmt: ast.stmt) -> Iterator[str]:
    if isinstance(stmt, ast.Import):
        for alias in stmt.names:
            parts = alias.name.split(".")
            if parts[0] == "repro" and len(parts) > 1:
                yield parts[1]
    elif isinstance(stmt, ast.ImportFrom) and stmt.level == 0:
        parts = (stmt.module or "").split(".")
        if parts[0] == "repro" and len(parts) > 1:
            yield parts[1]


@register
class ImportLayering(Checker):
    rule_id = "AUD008"
    title = "banned cross-layer import at module scope"
    severity = Severity.HIGH
    remediation = ("invert the dependency (analyzers observe simulations, "
                   "never the reverse) or defer it to function scope / "
                   "`if TYPE_CHECKING:` when only types are needed")

    def check(self, context: AuditContext) -> Iterator[AuditFinding]:
        for module in context.modules:
            banned = _BANNED.get(module.package)
            if not banned:
                continue
            for stmt in _module_scope_imports(module.tree):
                for target in _imported_repro_packages(stmt):
                    if target in banned and target != module.package:
                        yield self.finding(
                            module, stmt,
                            f"package `{module.package}` imports "
                            f"`repro.{target}` at module scope, against "
                            "the layering policy")
