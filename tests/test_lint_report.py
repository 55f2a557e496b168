"""Report rendering: golden JSON document, schema validation, tables."""

import pytest

from repro import __version__
from repro.core.entities import Component, SystemModel
from repro.core.layers import Layer
from repro.lint import (AnalysisTarget, Linter, SchemaError, Severity,
                        rules_by_id, validate_report_dict)


def exposed_brake_target():
    """Deterministic one-finding target: SEC005 on component 'ecu'."""
    model = SystemModel("golden")
    model.add_component(Component("ecu", Layer.NETWORK, criticality=5,
                                  exposed=True))
    return AnalysisTarget(name="golden", model=model)


def golden_linter():
    return Linter([rules_by_id()["SEC005"]])


#: The full expected document for the scenario above.  The fingerprint
#: is sha256("SEC005|ecu")[:16] per the documented Finding.fingerprint
#: formula — a change here is a breaking change for stored baselines.
GOLDEN_REPORT = {
    "version": "1.0",
    "tool": {"name": "repro-seclint", "version": __version__},
    "target": "golden",
    "rules": [
        {
            "id": "SEC005",
            "title": "safety-critical component directly exposed",
            "layer": "network",
            "severity": "critical",
            "paperRef": "Fig. 1",
            "remediation": "front safety-critical components with a gateway "
                           "or DMZ; never expose them to external attackers "
                           "directly",
        },
    ],
    "findings": [
        {
            "ruleId": "SEC005",
            "severity": "critical",
            "layer": "network",
            "subject": "ecu",
            "message": "criticality-5 component is itself an external entry point",
            "paperRef": "Fig. 1",
            "remediation": "front safety-critical components with a gateway "
                           "or DMZ; never expose them to external attackers "
                           "directly",
            "fingerprint": "fe42dc25fe32842d",
        },
    ],
    "suppressed": [],
    "summary": {"total": 1, "bySeverity": {"critical": 1}},
}


class TestGoldenReport:
    def test_json_document_matches_golden(self):
        linter = golden_linter()
        report = linter.run(exposed_brake_target())
        assert report.to_json_dict(linter.enabled_rules()) == GOLDEN_REPORT

    def test_golden_document_validates(self):
        validate_report_dict(GOLDEN_REPORT)


class TestSchemaValidation:
    def make_valid(self):
        linter = golden_linter()
        report = linter.run(exposed_brake_target())
        return report.to_json_dict(linter.enabled_rules())

    def test_missing_top_level_key_rejected(self):
        document = self.make_valid()
        del document["summary"]
        with pytest.raises(SchemaError, match="document: keys mismatch"):
            validate_report_dict(document)

    def test_wrong_version_rejected(self):
        document = self.make_valid()
        document["version"] = "9.9"
        with pytest.raises(SchemaError, match="version: must be"):
            validate_report_dict(document)

    def test_bad_severity_rejected(self):
        document = self.make_valid()
        document["findings"][0]["severity"] = "catastrophic"
        with pytest.raises(SchemaError, match="severity: must be one of"):
            validate_report_dict(document)

    def test_extra_finding_key_rejected(self):
        document = self.make_valid()
        document["findings"][0]["extra"] = "nope"
        with pytest.raises(SchemaError, match="keys"):
            validate_report_dict(document)

    def test_inconsistent_summary_rejected(self):
        document = self.make_valid()
        document["summary"]["total"] = 7
        with pytest.raises(SchemaError, match="summary.total"):
            validate_report_dict(document)

    def test_severity_counts_must_sum(self):
        document = self.make_valid()
        document["summary"]["bySeverity"] = {"critical": 1, "low": 1}
        with pytest.raises(SchemaError, match="sum"):
            validate_report_dict(document)

    def test_severity_counts_must_name_the_findings_severities(self):
        document = self.make_valid()
        document["summary"]["bySeverity"] = {"low": 1}  # sums to total
        with pytest.raises(SchemaError, match="summary.bySeverity: "):
            validate_report_dict(document)


class TestTable:
    def test_clean_table_one_liner(self):
        model = SystemModel("fine")
        model.add_component(Component("ecu", Layer.NETWORK, criticality=3))
        report = Linter().run(AnalysisTarget.from_model(model))
        assert "clean" in report.to_table()
        assert "0 findings" in report.to_table()

    def test_findings_table_mentions_rule_and_subject(self):
        linter = golden_linter()
        table = linter.run(exposed_brake_target()).to_table()
        assert "SEC005" in table
        assert "ecu" in table
        assert "critical" in table
        assert "1 finding(s)" in table

    def test_counts_by_severity(self):
        linter = golden_linter()
        report = linter.run(exposed_brake_target())
        assert report.counts_by_severity() == {Severity.CRITICAL: 1}
        assert report.worst_severity() is Severity.CRITICAL
