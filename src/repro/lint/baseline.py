"""Suppression baselines: pin *intentional* findings, fail on new ones.

Several example scenarios are insecure **by design** (the PKES relay
victim, the CARIAD breach replay); the linter must be able to gate CI on
those without drowning real regressions in expected noise.  A baseline
file records the fingerprints of accepted findings; anything not in the
file still fails the gate.

File format (JSON)::

    {
      "version": 1,
      "target": "<target name the baseline was captured from>",
      "suppressions": [
        {"fingerprint": "...", "ruleId": "SEC001",
         "subject": "telematics->cc", "comment": "intentional: ..."}
      ]
    }

``fingerprint`` alone decides suppression; ``ruleId``/``subject`` are
recorded so humans can review what a baseline actually hides.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.lint.engine import Finding

if TYPE_CHECKING:  # pragma: no cover
    from repro.audit.engine import AuditFinding
    from repro.audit.report import AuditReport
    from repro.lint.report import Report

__all__ = ["BaselineEntry", "Baseline"]

BASELINE_VERSION = 1


@dataclass(frozen=True)
class BaselineEntry:
    """One accepted finding."""

    fingerprint: str
    rule_id: str
    subject: str
    comment: str = ""

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "ruleId": self.rule_id,
            "subject": self.subject,
            "comment": self.comment,
        }


@dataclass
class Baseline:
    """A set of suppressed fingerprints tied to a target."""

    target: str = ""
    entries: dict[str, BaselineEntry] = field(default_factory=dict)

    def add(self, entry: BaselineEntry) -> None:
        self.entries[entry.fingerprint] = entry

    def suppresses(self, finding: Finding | AuditFinding) -> bool:
        return finding.fingerprint in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_report(cls, report: Report | AuditReport,
                    comment: str = "accepted by baseline") -> "Baseline":
        """Capture every current finding as accepted."""
        baseline = cls(target=report.target_name)
        for finding in report.findings:
            baseline.add(BaselineEntry(
                fingerprint=finding.fingerprint,
                rule_id=finding.rule_id,
                subject=finding.subject,
                comment=comment,
            ))
        return baseline

    # -- persistence ---------------------------------------------------------

    def to_json(self) -> str:
        entries = sorted(self.entries.values(),
                         key=lambda e: (e.rule_id, e.subject))
        return json.dumps({
            "version": BASELINE_VERSION,
            "target": self.target,
            "suppressions": [e.to_dict() for e in entries],
        }, indent=2, sort_keys=True) + "\n"

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def from_json(cls, text: str) -> "Baseline":
        document = json.loads(text)
        if not isinstance(document, dict):
            raise ValueError("baseline must be a JSON object")
        if document.get("version") != BASELINE_VERSION:
            raise ValueError(
                f"unsupported baseline version {document.get('version')!r}")
        baseline = cls(target=str(document.get("target", "")))
        for entry in document.get("suppressions", []):
            baseline.add(BaselineEntry(
                fingerprint=str(entry["fingerprint"]),
                rule_id=str(entry.get("ruleId", "")),
                subject=str(entry.get("subject", "")),
                comment=str(entry.get("comment", "")),
            ))
        return baseline

    @classmethod
    def load(cls, path: str | Path) -> "Baseline":
        return cls.from_json(Path(path).read_text())
