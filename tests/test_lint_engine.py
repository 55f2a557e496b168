"""Rule-engine mechanics: severities, registration, enable/disable, gating,
and one taint analysis and one attack plan per run."""

import pytest

from repro.core.entities import Component, SystemModel
from repro.core.layers import Layer
from repro.flow import flow_linter
from repro.lint import (CATALOG, AnalysisTarget, Finding, Linter, Rule,
                        Severity, build_scenario, full_catalog,
                        scenario_names)


def make_rule(rule_id="TST001", severity=Severity.HIGH, subjects=("thing",)):
    def check(target):
        return [(s, f"{s} is misconfigured") for s in subjects]

    return Rule(rule_id, "test rule", Layer.NETWORK, severity,
                "§TEST", "fix the thing", check)


def empty_target(name="empty"):
    return AnalysisTarget(name=name)


class TestSeverity:
    def test_ordering(self):
        assert Severity.INFO < Severity.LOW < Severity.MEDIUM
        assert Severity.MEDIUM < Severity.HIGH < Severity.CRITICAL

    def test_from_name_case_insensitive(self):
        assert Severity.from_name("high") is Severity.HIGH
        assert Severity.from_name("CRITICAL") is Severity.CRITICAL

    def test_from_name_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown severity"):
            Severity.from_name("fatal")


class TestCatalog:
    def test_catalog_size(self):
        # The tentpole promises a catalog spanning every paper layer.
        assert len(CATALOG) >= 18

    def test_rule_ids_unique_and_stable_format(self):
        ids = [r.rule_id for r in CATALOG]
        assert len(ids) == len(set(ids))
        for rule_id in ids:
            assert rule_id[:3].isalpha() and rule_id[3:].isdigit()

    def test_every_layer_covered(self):
        layers = {r.layer for r in CATALOG}
        assert {Layer.PHYSICAL, Layer.NETWORK, Layer.SOFTWARE_PLATFORM,
                Layer.DATA, Layer.SYSTEM_OF_SYSTEMS} <= layers

    def test_metadata_populated(self):
        for rule in CATALOG:
            assert rule.title and rule.paper_ref and rule.remediation


class TestLinter:
    def test_duplicate_rule_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate rule id"):
            Linter([make_rule("DUP001"), make_rule("DUP001")])

    def test_run_produces_findings_with_rule_metadata(self):
        linter = Linter([make_rule()])
        report = linter.run(empty_target())
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.rule_id == "TST001"
        assert finding.severity is Severity.HIGH
        assert finding.paper_ref == "§TEST"
        assert report.rules_run == ("TST001",)

    def test_disable_and_enable(self):
        linter = Linter([make_rule("TST001"), make_rule("TST002")])
        linter.disable("TST001")
        report = linter.run(empty_target())
        assert report.finding_rule_ids() == {"TST002"}
        assert report.rules_run == ("TST002",)
        linter.enable("TST001")
        assert linter.run(empty_target()).finding_rule_ids() == {"TST001", "TST002"}

    def test_disable_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            Linter([make_rule()]).disable("NOPE999")

    def test_findings_sorted_severity_first(self):
        linter = Linter([
            make_rule("AAA001", Severity.LOW),
            make_rule("ZZZ001", Severity.CRITICAL),
        ])
        report = linter.run(empty_target())
        assert [f.rule_id for f in report.findings] == ["ZZZ001", "AAA001"]

    def test_default_linter_uses_full_catalog(self):
        assert ({r.rule_id for r in Linter().rules}
                == {r.rule_id for r in full_catalog()})

    def test_full_catalog_appends_flow_and_rt_families(self):
        # the FLOW rules live in repro.flow and the RT rules in
        # repro.redteam, but both must always be part of the default
        # linter (lazy import, no catalog cycle)
        extra = {r.rule_id for r in full_catalog()} - {r.rule_id for r in CATALOG}
        assert extra == {"FLOW001", "FLOW002", "FLOW003", "FLOW004",
                         "RT001", "RT002", "RT003", "RT004"}


class TestFinding:
    def test_fingerprint_stable_across_message_changes(self):
        base = dict(rule_id="TST001", severity=Severity.HIGH,
                    layer=Layer.NETWORK, subject="ecu-1",
                    paper_ref="x", remediation="y")
        a = Finding(message="old wording", **base)
        b = Finding(message="new improved wording", **base)
        assert a.fingerprint == b.fingerprint
        assert len(a.fingerprint) == 16

    def test_fingerprint_distinguishes_subjects_and_rules(self):
        base = dict(severity=Severity.HIGH, layer=Layer.NETWORK,
                    message="m", paper_ref="x", remediation="y")
        assert (Finding(rule_id="A001", subject="s", **base).fingerprint
                != Finding(rule_id="A001", subject="t", **base).fingerprint)
        assert (Finding(rule_id="A001", subject="s", **base).fingerprint
                != Finding(rule_id="B001", subject="s", **base).fingerprint)


class TestGate:
    def test_exit_code_respects_gate(self):
        linter = Linter([make_rule(severity=Severity.MEDIUM)])
        report = linter.run(empty_target())
        assert report.exit_code(Severity.LOW) == 1
        assert report.exit_code(Severity.MEDIUM) == 1
        assert report.exit_code(Severity.HIGH) == 0
        assert report.exit_code(None) == 0

    def test_clean_report_exits_zero(self):
        model = SystemModel("clean")
        model.add_component(Component("ecu", Layer.NETWORK, criticality=3))
        report = Linter().run(AnalysisTarget.from_model(model))
        assert report.findings == ()
        assert report.exit_code(Severity.INFO) == 0


class TestOneAnalysisPerRun:
    """Every FLOW and RT rule of one run reads the same taint analysis and
    the same attack plan; a run that needs neither computes neither."""

    @pytest.mark.parametrize("name", scenario_names())
    def test_full_catalog_analyzes_and_plans_once(self, analysis_calls, name):
        Linter().run(build_scenario(name))
        assert analysis_calls == {"analyze": 1, "plan": 1}

    @pytest.mark.parametrize("name", scenario_names())
    def test_flow_linter_analyzes_once_and_never_plans(self, analysis_calls, name):
        flow_linter().run(build_scenario(name))
        assert analysis_calls == {"analyze": 1, "plan": 0}

    @pytest.mark.parametrize("name", scenario_names())
    def test_no_flow_or_rt_rule_means_no_analysis(self, analysis_calls, name):
        linter = Linter()
        linter.disable(*[r.rule_id for r in linter.rules
                         if r.rule_id.startswith(("FLOW", "RT"))])
        linter.run(build_scenario(name))
        assert analysis_calls == {"analyze": 0, "plan": 0}

    def test_nothing_outlives_a_run(self, analysis_calls):
        # targets are mutable, so each run analyzes afresh
        target = build_scenario("pkes-legacy")
        linter = Linter()
        first = linter.run(target)
        target.model = None
        second = linter.run(target)
        assert analysis_calls == {"analyze": 2, "plan": 2}
        assert first.finding_rule_ids() != second.finding_rule_ids()
