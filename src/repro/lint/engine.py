"""Rule engine for the static security-configuration analyzer (§VIII).

The paper's closing argument is that autonomous-system security must be
*holistic and multi-layered*: a misconfiguration at one layer (an
unauthenticated CAN segment, a truncated SECOC MAC, an over-scoped cloud
key) silently undermines defenses at every other layer.  The linter
makes that argument executable — it inspects a fully-configured system
**without running any simulation** and reports every layer's
misconfigurations in one pass.

* :class:`Rule` — one check with a stable id (``SEC001`` …), the Fig. 1
  layer it belongs to, a severity, the paper section it derives from,
  and remediation text;
* :class:`Finding` — one violation, with a stable fingerprint used by
  the suppression baseline;
* :class:`Linter` — runs an enabled subset of the rule catalog over an
  :class:`~repro.lint.target.AnalysisTarget` and produces a
  :class:`~repro.lint.report.Report`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Iterable, Literal

from repro.core.layers import Layer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.flow.taint import FlowResult
    from repro.lint.baseline import Baseline
    from repro.lint.report import Report
    from repro.lint.target import AnalysisTarget
    from repro.redteam.planner import PlanResult

__all__ = ["Severity", "Rule", "Finding", "Analysis", "Linter", "rule"]

CheckFn = Callable[[Any], Iterable[tuple[str, str]]]


class Severity(IntEnum):
    """Finding severity, ordered so comparisons read naturally."""

    INFO = 10
    LOW = 20
    MEDIUM = 30
    HIGH = 40
    CRITICAL = 50

    @classmethod
    def from_name(cls, name: str) -> "Severity":
        try:
            return cls[name.upper()]
        except KeyError:
            valid = ", ".join(s.name.lower() for s in cls)
            raise ValueError(f"unknown severity {name!r} (expected one of {valid})") from None


@dataclass(frozen=True)
class Rule:
    """One static check.

    ``check`` receives the :class:`Analysis` attribute named by
    ``reads`` and returns ``(subject, message)`` pairs — one per
    violation; the engine wraps them into :class:`Finding` objects
    carrying the rule's metadata.
    """

    rule_id: str
    title: str
    layer: Layer
    severity: Severity
    paper_ref: str
    remediation: str
    check: CheckFn
    reads: Literal["target", "flow", "plan"] = "target"

    def __post_init__(self) -> None:
        if not self.rule_id or not self.rule_id[:1].isalpha():
            raise ValueError(f"rule id must start with a letter: {self.rule_id!r}")

    def run(self, analysis: "Analysis") -> list["Finding"]:
        return [
            Finding(
                rule_id=self.rule_id,
                severity=self.severity,
                layer=self.layer,
                subject=subject,
                message=message,
                paper_ref=self.paper_ref,
                remediation=self.remediation,
            )
            for subject, message in self.check(getattr(analysis, self.reads))
        ]


def rule(catalog: list[Rule], rule_id: str, title: str, *, layer: Layer,
         severity: Severity, paper_ref: str, remediation: str,
         reads: Literal["target", "flow", "plan"] = "target",
         ) -> Callable[[CheckFn], CheckFn]:
    """Register the decorated check into ``catalog`` as a :class:`Rule`."""

    def decorator(check: CheckFn) -> CheckFn:
        catalog.append(Rule(rule_id, title, layer, severity, paper_ref,
                            remediation, check, reads))
        return check

    return decorator


@dataclass(frozen=True)
class Finding:
    """One violation of one rule against one subject."""

    rule_id: str
    severity: Severity
    layer: Layer
    subject: str
    message: str
    paper_ref: str
    remediation: str

    @property
    def fingerprint(self) -> str:
        """Stable id for baselining: rule + subject, not the message text.

        Message wording may improve between versions; a baseline entry
        must keep suppressing the same logical finding regardless.
        """
        material = f"{self.rule_id}|{self.subject}"
        return hashlib.sha256(material.encode()).hexdigest()[:16]

    def to_dict(self) -> dict:
        return {
            "ruleId": self.rule_id,
            "severity": self.severity.name.lower(),
            "layer": self.layer.name.lower(),
            "subject": self.subject,
            "message": self.message,
            "paperRef": self.paper_ref,
            "remediation": self.remediation,
            "fingerprint": self.fingerprint,
        }


class Analysis:
    """What the rules of one :meth:`Linter.run` read: the ``target``,
    its taint analysis (``flow``) and its attack ``plan``.

    The last two are computed on first read and shared by every reader:
    the run's rules, then the CLI renderers, the red-team document and
    the differential gate through ``Report.analysis``.  Targets are
    mutable and a first read sees the target as it is then, so an
    ``Analysis`` belongs to one run and lives as long as its report.
    """

    def __init__(self, target: "AnalysisTarget") -> None:
        self.target = target

    @cached_property
    def flow(self) -> "FlowResult":
        from repro.flow.taint import analyze

        return analyze(self.target)

    @cached_property
    def plan(self) -> "PlanResult":
        from repro.redteam.planner import plan

        return plan(self.target, self.flow)


class Linter:
    """Runs the rule catalog (or a subset) over an analysis target."""

    def __init__(self, rules: Iterable[Rule] | None = None) -> None:
        if rules is None:
            from repro.lint.rules import full_catalog

            rules = full_catalog()
        self._rules: dict[str, Rule] = {}
        for rule in rules:
            if rule.rule_id in self._rules:
                raise ValueError(f"duplicate rule id {rule.rule_id!r}")
            self._rules[rule.rule_id] = rule
        self._disabled: set[str] = set()

    # -- rule management -----------------------------------------------------

    @property
    def rules(self) -> list[Rule]:
        return list(self._rules.values())

    def rule(self, rule_id: str) -> Rule:
        return self._rules[rule_id]

    def enabled_rules(self) -> list[Rule]:
        return [r for r in self._rules.values() if r.rule_id not in self._disabled]

    def disable(self, *rule_ids: str) -> None:
        for rule_id in rule_ids:
            if rule_id not in self._rules:
                raise KeyError(f"unknown rule {rule_id!r}")
            self._disabled.add(rule_id)

    def enable(self, *rule_ids: str) -> None:
        for rule_id in rule_ids:
            if rule_id not in self._rules:
                raise KeyError(f"unknown rule {rule_id!r}")
            self._disabled.discard(rule_id)

    # -- execution -----------------------------------------------------------

    def run(self, target: "AnalysisTarget",
            baseline: "Baseline | None" = None) -> "Report":
        """Run every enabled rule; baseline entries move findings to
        ``report.suppressed`` instead of dropping them silently."""
        from repro.lint.report import Report

        analysis = Analysis(target)
        findings: list[Finding] = []
        suppressed: list[Finding] = []
        rules_run = self.enabled_rules()
        for enabled in rules_run:
            for finding in enabled.run(analysis):
                if baseline is not None and baseline.suppresses(finding):
                    suppressed.append(finding)
                else:
                    findings.append(finding)
        findings.sort(key=lambda f: (-f.severity, f.rule_id, f.subject))
        suppressed.sort(key=lambda f: (-f.severity, f.rule_id, f.subject))
        return Report(
            target_name=target.name,
            findings=tuple(findings),
            suppressed=tuple(suppressed),
            rules_run=tuple(r.rule_id for r in rules_run),
            analysis=analysis,
        )
