"""Lint reports: human-readable tables and a SARIF-style JSON document.

The JSON schema (version ``1.0``) is intentionally a small, stable
subset of SARIF's shape::

    {
      "version": "1.0",
      "tool": {"name": "repro-seclint", "version": "<package version>"},
      "target": "<target name>",
      "rules": [
        {"id", "title", "layer", "severity", "paperRef", "remediation"}
      ],
      "findings": [
        {"ruleId", "severity", "layer", "subject", "message",
         "paperRef", "remediation", "fingerprint"}
      ],
      "suppressed": [ <same shape as findings> ],
      "summary": {"total": <int>, "bySeverity": {"critical": <int>, ...}}
    }

The producer fills ``summary`` with :func:`lint_summary` and the
validator checks it against the same function.
:func:`validate_report_dict` checks a parsed document against that
schema and raises :class:`SchemaError` on any violation — the CI gate
and the golden-report test both call it.

A :class:`Report` is what one :meth:`~repro.lint.engine.Linter.run`
returns, always with its analysis; the SARIF view of a lint, flow,
redteam or audit report is :mod:`repro.lint.sarif`'s.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from repro.core.layers import Layer
from repro.core.schema import (COUNT, STRING, TEXT, SchemaError, derived,
                               header, leaf, list_of, map_of, obj, one_of,
                               validate)
from repro.lint.engine import Analysis, Finding, Rule, Severity

__all__ = ["Report", "SchemaError", "validate_report_dict", "lint_summary"]

SCHEMA_VERSION = "1.0"
TOOL_NAME = "repro-seclint"


@dataclass(frozen=True)
class Report:
    """The outcome of one linter run over one target.

    Only :meth:`~repro.lint.engine.Linter.run` builds one.  ``analysis``
    is that run's :class:`~repro.lint.engine.Analysis`, so a renderer or
    document reads the taint analysis and attack plan the rules read
    instead of computing them again.  It is always set, lives as long as
    the report, and is neither compared, printed nor serialised.
    """

    target_name: str
    findings: tuple[Finding, ...]
    suppressed: tuple[Finding, ...] = ()
    rules_run: tuple[str, ...] = ()
    analysis: Analysis = field(kw_only=True, compare=False, repr=False)

    # -- summaries -----------------------------------------------------------

    def counts_by_severity(self) -> dict[Severity, int]:
        counts: dict[Severity, int] = {}
        for finding in self.findings:
            counts[finding.severity] = counts.get(finding.severity, 0) + 1
        return counts

    def worst_severity(self) -> Severity | None:
        return max((f.severity for f in self.findings), default=None)

    def finding_rule_ids(self) -> set[str]:
        return {f.rule_id for f in self.findings}

    def exit_code(self, gate: Severity | None = Severity.LOW) -> int:
        """0 when no unsuppressed finding reaches ``gate``; 1 otherwise.

        ``gate=None`` never fails (report-only mode).
        """
        if gate is None:
            return 0
        worst = self.worst_severity()
        return 1 if worst is not None and worst >= gate else 0

    # -- rendering -----------------------------------------------------------

    def to_table(self) -> str:
        """Human-readable findings table."""
        if not self.findings and not self.suppressed:
            return (f"{self.target_name}: clean "
                    f"({len(self.rules_run)} rules, 0 findings)")
        lines = [
            f"{'rule':8s} {'severity':9s} {'layer':18s} subject: message",
            f"{'-' * 8} {'-' * 9} {'-' * 18} {'-' * 40}",
        ]
        for finding in self.findings:
            lines.append(
                f"{finding.rule_id:8s} {finding.severity.name.lower():9s} "
                f"{finding.layer.name.lower():18s} "
                f"{finding.subject}: {finding.message}")
        summary = ", ".join(
            f"{count} {severity.name.lower()}"
            for severity, count in sorted(self.counts_by_severity().items(),
                                          key=lambda kv: -kv[0]))
        lines.append(f"{self.target_name}: {len(self.findings)} finding(s) "
                     f"({summary or 'none'}), "
                     f"{len(self.suppressed)} baselined, "
                     f"{len(self.rules_run)} rules run")
        return "\n".join(lines)

    def to_json_dict(self, rules: Iterable[Rule] = ()) -> dict:
        """The SARIF-lite document (see module docstring for the schema)."""
        from repro import __version__

        document = {
            "version": SCHEMA_VERSION,
            "tool": {"name": TOOL_NAME, "version": __version__},
            "target": self.target_name,
            "rules": [
                {
                    "id": rule.rule_id,
                    "title": rule.title,
                    "layer": rule.layer.name.lower(),
                    "severity": rule.severity.name.lower(),
                    "paperRef": rule.paper_ref,
                    "remediation": rule.remediation,
                }
                for rule in rules
            ],
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
        }
        document["summary"] = lint_summary(document)
        return document


# --------------------------------------------------------------------------
# schema validation
# --------------------------------------------------------------------------

#: Specs shared with the audit report, which reuses the finding shape.
SEVERITY = one_of({s.name.lower() for s in Severity})
FINGERPRINT = leaf(lambda v: isinstance(v, str) and len(v) == 16,
                   "16 hex chars")
_LAYER = one_of({layer.name.lower() for layer in Layer})
_FINDING = obj({
    "ruleId": STRING, "severity": SEVERITY, "layer": _LAYER,
    "subject": STRING, "message": STRING, "paperRef": STRING,
    "remediation": STRING, "fingerprint": FINGERPRINT,
})
_RULE = obj({"id": TEXT, "title": STRING, "layer": _LAYER,
             "severity": SEVERITY, "paperRef": STRING,
             "remediation": STRING})


def lint_summary(document: dict) -> dict:
    """The ``summary`` block, from the findings."""
    findings = document["findings"]
    return {"total": len(findings),
            "bySeverity": dict(Counter(f["severity"] for f in findings))}


_DOCUMENT = obj({
    **header(SCHEMA_VERSION, TOOL_NAME),
    "target": TEXT,
    "rules": list_of(_RULE),
    "findings": list_of(_FINDING),
    "suppressed": list_of(_FINDING),
    "summary": obj({"total": COUNT, "bySeverity": map_of(SEVERITY, COUNT)}),
}, check=derived("summary", lint_summary))


def validate_report_dict(document: dict) -> None:
    """Raise :class:`SchemaError` unless ``document`` matches the schema."""
    validate(document, _DOCUMENT)
