"""Audit reports: findings table, schema-validated JSON, SARIF 2.1.0.

The JSON schema (version ``1.0``) follows the house lint conventions::

    {
      "version": "1.0",
      "tool": {"name": "repro-audit", "version": "<package version>"},
      "target": "<audited root>",
      "audited": {"modules": <int>, "packages": {"ivn": <int>, ...}},
      "rules": [
        {"id", "title", "layer", "severity", "remediation"}
      ],
      "findings": [
        {"ruleId", "severity", "path", "line", "message", "remediation",
         "fingerprint"}
      ],
      "suppressed": [ <same shape as findings> ],
      "summary": {"total": <int>, "byRule": {"AUD001": <int>, ...}}
    }

The producer fills ``summary`` with :func:`audit_summary` and the
validator checks it against the same function.
:func:`validate_audit_dict` checks a parsed document against that
schema and raises :class:`SchemaError` on any violation.
:func:`to_sarif_dict` hands the report and its checkers as they are to
:func:`repro.lint.sarif.to_sarif_dict`, the one SARIF writer of every
static analyzer; each audit result also gets a file/line location.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core.schema import (COUNT, STRING, TEXT, SchemaError, derived,
                               header, integer, leaf, list_of, map_of, obj,
                               require, validate)
from repro.lint.engine import Severity
from repro.lint.report import FINGERPRINT, SEVERITY
from repro.lint.sarif import to_sarif_dict as lint_to_sarif

from repro.audit.engine import AuditFinding, Checker

__all__ = ["AuditReport", "SchemaError", "validate_audit_dict",
           "audit_summary", "to_sarif_dict"]

SCHEMA_VERSION = "1.0"
TOOL_NAME = "repro-audit"


@dataclass(frozen=True)
class AuditReport:
    """The outcome of one audit run over one source tree.

    ``target_name`` is the audited root; it and the findings are what
    :class:`~repro.lint.baseline.Baseline` and :mod:`repro.lint.sarif`
    read, the same as of a lint :class:`~repro.lint.report.Report`.
    """

    target_name: str
    findings: tuple[AuditFinding, ...]
    suppressed: tuple[AuditFinding, ...] = ()
    rules_run: tuple[str, ...] = ()
    modules_audited: int = 0
    packages: dict[str, int] = field(default_factory=dict)

    # -- summaries -----------------------------------------------------------

    def exit_code(self, gate: Severity | None = Severity.INFO) -> int:
        """0 when no unsuppressed finding reaches ``gate``; 1 otherwise."""
        if gate is None:
            return 0
        return 1 if any(f.severity >= gate for f in self.findings) else 0

    # -- rendering -----------------------------------------------------------

    def to_table(self) -> str:
        """Human-readable findings table."""
        audited = (f"{self.modules_audited} modules, "
                   f"{len(self.rules_run)} rules")
        if not self.findings and not self.suppressed:
            return f"{self.target_name}: clean ({audited}, 0 findings)"
        lines = [
            f"{'rule':8s} {'severity':9s} location: message",
            f"{'-' * 8} {'-' * 9} {'-' * 50}",
        ]
        for finding in self.findings:
            lines.append(f"{finding.rule_id:8s} "
                         f"{finding.severity.name.lower():9s} "
                         f"{finding.subject}: {finding.message}")
        lines.append(f"{self.target_name}: {len(self.findings)} finding(s), "
                     f"{len(self.suppressed)} suppressed ({audited})")
        return "\n".join(lines)

    def to_json_dict(self, checkers: list[Checker] | None = None) -> dict:
        """The audit document (see module docstring for the schema)."""
        from repro import __version__

        document = {
            "version": SCHEMA_VERSION,
            "tool": {"name": TOOL_NAME, "version": __version__},
            "target": self.target_name,
            "audited": {
                "modules": self.modules_audited,
                "packages": dict(self.packages),
            },
            "rules": [
                {
                    "id": checker.rule_id,
                    "title": checker.title,
                    "layer": checker.layer.name.lower(),
                    "severity": checker.severity.name.lower(),
                    "remediation": checker.remediation,
                }
                for checker in (checkers or [])
            ],
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
        }
        document["summary"] = audit_summary(document)
        return document


def audit_summary(document: dict) -> dict:
    """The ``summary`` block, from the findings (``byRule`` sorted)."""
    findings = document["findings"]
    return {"total": len(findings), "byRule": dict(sorted(
        Counter(finding["ruleId"] for finding in findings).items()))}


def to_sarif_dict(report: AuditReport, checkers: list[Checker]) -> dict:
    """Render ``report`` as a SARIF 2.1.0 log via :mod:`repro.lint.sarif`."""
    return lint_to_sarif(report, checkers, tool_name=TOOL_NAME)


# --------------------------------------------------------------------------
# schema validation
# --------------------------------------------------------------------------

_AUD_ID = leaf(lambda v: isinstance(v, str) and v.startswith("AUD"),
               "an AUD rule id")
_FINDING = obj({
    "ruleId": _AUD_ID, "severity": SEVERITY, "path": STRING,
    "line": integer(1), "message": STRING, "remediation": STRING,
    "fingerprint": FINGERPRINT,
})


_SUMMARY = derived("summary", audit_summary)


def _check_document(document: dict, where: str) -> None:
    audited = document["audited"]
    require(sum(audited["packages"].values()) == audited["modules"], where,
            "audited.packages counts must sum to audited.modules")
    _SUMMARY(document, where)


_DOCUMENT = obj({
    **header(SCHEMA_VERSION, TOOL_NAME),
    "target": TEXT,
    "audited": obj({"modules": COUNT, "packages": map_of(STRING, COUNT)}),
    "rules": list_of(obj({"id": _AUD_ID, "title": STRING, "layer": STRING,
                          "severity": SEVERITY, "remediation": STRING})),
    "findings": list_of(_FINDING),
    "suppressed": list_of(_FINDING),
    "summary": obj({"total": COUNT, "byRule": map_of(_AUD_ID, integer(1))}),
}, check=_check_document)


def validate_audit_dict(document: dict) -> None:
    """Raise :class:`SchemaError` unless ``document`` matches the schema."""
    validate(document, _DOCUMENT)
