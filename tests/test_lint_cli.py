"""The ``python -m repro lint`` subcommand and the shipped scenarios.

Pins the PR's acceptance criteria: the intentionally-insecure scenarios
flag a wide set of distinct rules, the hardened onboard scenario exits
0, and the JSON output validates against the documented schema.
"""

import json

import pytest

from repro.lint import (Linter, build_scenario, scenario_names,
                        validate_report_dict)


class TestScenarios:
    def test_at_least_three_scenarios_registered(self):
        assert len(scenario_names()) >= 3

    def test_unknown_scenario_raises_with_listing(self):
        with pytest.raises(KeyError, match="available"):
            build_scenario("not-a-scenario")

    def test_insecure_setups_flag_many_distinct_rules(self):
        linter = Linter()
        flagged = set()
        for name in ("pkes-legacy", "cariad-breach"):
            flagged |= linter.run(build_scenario(name)).finding_rule_ids()
        assert len(flagged) >= 8, sorted(flagged)

    def test_hardened_onboard_is_clean(self):
        report = Linter().run(build_scenario("onboard-hardened"))
        assert report.findings == (), report.to_table()


class TestCli:
    def test_hardened_exits_zero(self, run_cli):
        code, out, _ = run_cli("lint", "onboard-hardened")
        assert code == 0
        assert "clean" in out

    def test_insecure_exits_nonzero(self, run_cli):
        code, out, _ = run_cli("lint", "onboard-insecure")
        assert code == 1
        assert "IVN001" in out

    def test_gate_none_reports_without_failing(self, run_cli):
        code, out, _ = run_cli("lint", "cariad-breach", "--gate", "none")
        assert code == 0
        assert "DAT001" in out

    def test_gate_critical_passes_medium_only_target(self, run_cli):
        code, _, _ = run_cli("lint", "pkes-legacy", "--gate", "critical")
        assert code == 1  # pkes-legacy includes critical SEC002/FLOW001 findings
        code, _, _ = run_cli("lint", "pkes-legacy",
                             "--disable", "SEC002,FLOW001,RT001",
                             "--gate", "critical")
        assert code == 0

    def test_json_output_validates_against_schema(self, run_cli):
        code, out, _ = run_cli("lint", "cariad-breach", "--json")
        assert code == 1
        document = json.loads(out)
        validate_report_dict(document)
        assert document["target"] == "cariad-breach"
        assert document["summary"]["total"] >= 8
        assert {r["id"] for r in document["rules"]} \
            == {r.rule_id for r in Linter().rules}

    def test_disable_removes_rule(self, run_cli):
        _, out, _ = run_cli("lint", "onboard-insecure",
                            "--disable", "IVN001,IVN003")
        assert "IVN001" not in out
        assert "IVN003" not in out
        assert "IVN002" in out

    def test_write_then_apply_baseline(self, run_cli, tmp_path):
        path = tmp_path / "baseline.json"
        code, out, _ = run_cli("lint", "pkes-legacy",
                               "--write-baseline", str(path))
        assert code == 0
        assert path.exists()
        code, out, _ = run_cli("lint", "pkes-legacy",
                               "--baseline", str(path))
        assert code == 0
        assert "baselined" in out

    def test_write_baseline_all_merges_every_scenario(self, run_cli, tmp_path):
        # regression: the old loop wrote the baseline once per scenario
        # to the same path, keeping only the *last* scenario's entries
        merged_path = tmp_path / "all.json"
        code, out, _ = run_cli("lint", "all",
                               "--write-baseline", str(merged_path))
        assert code == 0
        assert "scenario(s)" in out
        merged = json.loads(merged_path.read_text())
        assert merged["target"] == "all"

        single_path = tmp_path / "pkes.json"
        run_cli("lint", "pkes-legacy",
                "--write-baseline", str(single_path))
        single = json.loads(single_path.read_text())
        merged_prints = {e["fingerprint"] for e in merged["suppressions"]}
        single_prints = {e["fingerprint"] for e in single["suppressions"]}
        assert single_prints < merged_prints  # strict superset across scenarios

        # the merged baseline suppresses every scenario's findings
        code, _, _ = run_cli("lint", "all",
                             "--baseline", str(merged_path))
        assert code == 0

    def test_lint_all_covers_every_scenario(self, run_cli):
        code, out, _ = run_cli("lint", "all", "--gate", "none")
        assert code == 0
        for name in scenario_names():
            assert name in out

    def test_rules_listing(self, run_cli):
        code, out, _ = run_cli("lint", "--rules")
        assert code == 0
        for rule in Linter().rules:
            assert rule.rule_id in out

    def test_missing_scenario_is_usage_error(self, run_cli):
        code, _, err = run_cli("lint")
        assert code == 2
        assert "scenario" in err

    def test_unknown_scenario_is_usage_error(self, run_cli):
        code, _, err = run_cli("lint", "bogus")
        assert code == 2
        assert "unknown scenario" in err
