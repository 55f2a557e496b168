"""Checker base class, registry, and the audit engine.

A checker is one invariant: a small class with a stable id
(``AUD001`` …), a severity, remediation text, and a ``check`` method
that walks the shared :class:`~repro.audit.context.AuditContext` and
yields findings.  Checkers register themselves with :func:`register`,
so adding an invariant in a future PR is one new file under
``repro/audit/checkers/`` — the engine, CLI, reports, and the
catalog meta-test pick it up automatically.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.core.layers import Layer
from repro.lint.engine import Severity

from repro.audit.context import AuditContext, ModuleInfo

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.lint.baseline import Baseline

    from repro.audit.report import AuditReport

__all__ = ["AuditFinding", "Checker", "register", "all_checkers",
           "AuditEngine"]


@dataclass(frozen=True)
class AuditFinding:
    """One violation of one audit rule at one source location; it has
    every attribute :mod:`repro.lint.sarif` reads of a finding."""

    rule_id: str
    severity: Severity
    layer: Layer
    path: str
    line: int
    message: str
    paper_ref: str
    remediation: str

    @property
    def subject(self) -> str:
        """``path:line`` — the display/SARIF location."""
        return f"{self.path}:{self.line}"

    @property
    def fingerprint(self) -> str:
        """Stable id for baselining: rule + file + message, *not* the
        line number — refactors that move code must keep suppressing
        the same logical finding."""
        material = f"{self.rule_id}|{self.path}|{self.message}"
        return hashlib.sha256(material.encode()).hexdigest()[:16]

    def to_dict(self) -> dict:
        return {
            "ruleId": self.rule_id,
            "severity": self.severity.name.lower(),
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "remediation": self.remediation,
            "fingerprint": self.fingerprint,
        }


class Checker:
    """Base class for one audit invariant.

    Subclasses set the class attributes and implement :meth:`check`.
    ``layer`` positions the rule in the paper's Fig. 1 stack for the
    SARIF export (defaults to the cross-cutting system-of-systems
    layer, which is where "the repo's own promises" live); every rule
    cites the paper's §VIII.
    """

    rule_id: str = ""
    title: str = ""
    severity: Severity = Severity.HIGH
    layer: Layer = Layer.SYSTEM_OF_SYSTEMS
    paper_ref: str = "§VIII"
    remediation: str = ""

    def check(self, context: AuditContext) -> Iterator[AuditFinding]:
        raise NotImplementedError

    # -- helpers for subclasses ----------------------------------------------

    def finding(self, module: ModuleInfo, node: ast.AST | int,
                message: str) -> AuditFinding:
        line = node if isinstance(node, int) else getattr(node, "lineno", 1)
        return AuditFinding(
            rule_id=self.rule_id,
            severity=self.severity,
            layer=self.layer,
            path=module.relpath,
            line=line,
            message=message,
            paper_ref=self.paper_ref,
            remediation=self.remediation,
        )


#: rule id -> checker class, filled by the :func:`register` decorator.
REGISTRY: dict[str, type[Checker]] = {}


def register(cls: type[Checker]) -> type[Checker]:
    """Class decorator: add a checker to the catalog."""
    if not cls.rule_id or not cls.rule_id.startswith("AUD"):
        raise ValueError(f"checker id must look like AUD001: {cls.rule_id!r}")
    if cls.rule_id in REGISTRY:
        raise ValueError(f"duplicate checker id {cls.rule_id!r}")
    if not cls.title or not cls.remediation:
        raise ValueError(f"{cls.rule_id}: title and remediation are required")
    REGISTRY[cls.rule_id] = cls
    return cls


def all_checkers() -> list[Checker]:
    """One instance of every registered checker, ordered by rule id."""
    import repro.audit.checkers  # noqa: F401  (registration side effect)

    return [REGISTRY[rule_id]() for rule_id in sorted(REGISTRY)]


class AuditEngine:
    """Runs the checker catalog (or a subset) over a parse context."""

    def __init__(self, checkers: Iterable[Checker] | None = None) -> None:
        if checkers is None:
            checkers = all_checkers()
        self._checkers: dict[str, Checker] = {}
        for checker in checkers:
            if checker.rule_id in self._checkers:
                raise ValueError(f"duplicate checker id {checker.rule_id!r}")
            self._checkers[checker.rule_id] = checker

    @property
    def checkers(self) -> list[Checker]:
        return [self._checkers[rule_id] for rule_id in sorted(self._checkers)]

    def run(self, context: AuditContext | None = None,
            baseline: "Baseline | None" = None) -> "AuditReport":
        """Audit ``context`` (default: the shipped ``src/repro`` tree).

        Inline ``# audit: allow`` pragmas and baseline entries move
        findings to ``report.suppressed`` instead of dropping them.
        """
        from repro.audit.report import AuditReport

        if context is None:
            context = AuditContext.parse()
        by_relpath = {module.relpath: module for module in context.modules}
        findings: list[AuditFinding] = []
        suppressed: list[AuditFinding] = []
        for checker in self.checkers:
            for finding in checker.check(context):
                module = by_relpath.get(finding.path)
                inline = (module is not None and
                          finding.rule_id in module.allowed_on(finding.line))
                if inline or (baseline is not None
                              and baseline.suppresses(finding)):
                    suppressed.append(finding)
                else:
                    findings.append(finding)
        key = lambda f: (f.rule_id, f.path, f.line, f.message)  # noqa: E731
        return AuditReport(
            target_name=str(context.root),
            findings=tuple(sorted(findings, key=key)),
            suppressed=tuple(sorted(suppressed, key=key)),
            rules_run=tuple(c.rule_id for c in self.checkers),
            modules_audited=len(context),
            packages=context.packages_audited(),
        )
