"""SARIF 2.1.0 export: golden file, structural validation, suppressions."""

import json
import pathlib

import pytest

from repro import __version__
from repro.core.entities import Component, SystemModel
from repro.core.layers import Layer
from repro.lint import (AnalysisTarget, Baseline, Linter, SchemaError,
                        Severity, rules_by_id)
from repro.lint.sarif import (SARIF_SCHEMA_URI, SARIF_VERSION, to_sarif_dict,
                              validate_sarif_dict)

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_sarif.json"


def exposed_brake_target():
    model = SystemModel("golden")
    model.add_component(Component("ecu", Layer.NETWORK, criticality=5,
                                  exposed=True))
    return AnalysisTarget(name="golden", model=model)


def golden_linter():
    return Linter([rules_by_id()["SEC005"]])


def make_sarif(baseline=None):
    linter = golden_linter()
    report = linter.run(exposed_brake_target(), baseline=baseline)
    return to_sarif_dict(report, linter.enabled_rules())


class TestGoldenFile:
    def test_matches_golden_file(self):
        """The emitted log must byte-match the checked-in golden file
        (modulo the package version, normalized on both sides)."""
        document = make_sarif()
        document["runs"][0]["tool"]["driver"]["version"] = "<version>"
        golden = json.loads(GOLDEN_PATH.read_text())
        assert document == golden

    def test_golden_file_validates(self):
        document = json.loads(GOLDEN_PATH.read_text())
        document["runs"][0]["tool"]["driver"]["version"] = __version__
        validate_sarif_dict(document)


class TestShape:
    def test_header_pins_sarif_2_1_0(self):
        document = make_sarif()
        assert document["version"] == SARIF_VERSION == "2.1.0"
        assert document["$schema"] == SARIF_SCHEMA_URI
        validate_sarif_dict(document)

    def test_severity_maps_to_sarif_levels(self):
        document = make_sarif()
        (result,) = document["runs"][0]["results"]
        assert result["level"] == "error"  # CRITICAL -> error
        assert result["properties"]["severity"] == "critical"

    def test_subject_becomes_logical_location(self):
        document = make_sarif()
        (result,) = document["runs"][0]["results"]
        logical = result["locations"][0]["logicalLocations"][0]
        assert logical["name"] == "ecu"

    def test_partial_fingerprint_matches_baseline_fingerprint(self):
        linter = golden_linter()
        report = linter.run(exposed_brake_target())
        document = to_sarif_dict(report, linter.enabled_rules())
        (result,) = document["runs"][0]["results"]
        assert result["partialFingerprints"]["seclint/v1"] \
            == report.findings[0].fingerprint

    def test_rule_index_points_into_driver_rules(self):
        document = make_sarif()
        (result,) = document["runs"][0]["results"]
        rules = document["runs"][0]["tool"]["driver"]["rules"]
        assert rules[result["ruleIndex"]]["id"] == result["ruleId"]

    def test_baselined_findings_get_suppressions(self):
        linter = golden_linter()
        baseline = Baseline.from_report(
            linter.run(exposed_brake_target()), comment="accepted")
        document = make_sarif(baseline=baseline)
        validate_sarif_dict(document)
        (result,) = document["runs"][0]["results"]
        assert result["suppressions"][0]["kind"] == "external"

    def test_every_severity_level_is_valid_sarif(self):
        from repro.lint.sarif import _LEVELS

        assert set(_LEVELS) == set(Severity)
        assert set(_LEVELS.values()) <= {"none", "note", "warning", "error"}


class TestValidation:
    def test_wrong_version_rejected(self):
        document = make_sarif()
        document["version"] = "2.0.0"
        with pytest.raises(SchemaError, match="version"):
            validate_sarif_dict(document)

    def test_missing_runs_rejected(self):
        document = make_sarif()
        document["runs"] = []
        with pytest.raises(SchemaError, match="one run"):
            validate_sarif_dict(document)

    def test_unknown_rule_id_in_result_rejected(self):
        document = make_sarif()
        document["runs"][0]["results"][0]["ruleId"] = "NOPE999"
        with pytest.raises(SchemaError, match="not in driver.rules"):
            validate_sarif_dict(document)

    def test_bad_level_rejected(self):
        document = make_sarif()
        document["runs"][0]["results"][0]["level"] = "catastrophic"
        with pytest.raises(SchemaError, match="level: must be one of"):
            validate_sarif_dict(document)

    def test_missing_fingerprints_rejected(self):
        document = make_sarif()
        del document["runs"][0]["results"][0]["partialFingerprints"]
        with pytest.raises(SchemaError, match="partialFingerprints"):
            validate_sarif_dict(document)

    def test_duplicate_rule_ids_rejected(self):
        document = make_sarif()
        rules = document["runs"][0]["tool"]["driver"]["rules"]
        rules.append(dict(rules[0]))
        with pytest.raises(SchemaError, match="duplicate"):
            validate_sarif_dict(document)
