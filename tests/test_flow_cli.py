"""The ``python -m repro flow`` subcommand: verdicts, witnesses, cuts,
JSON/SARIF output, gates, and baselines."""

import json

from repro.lint import validate_report_dict
from repro.lint.sarif import validate_sarif_dict


class TestVerdicts:
    def test_hardened_is_path_clean_and_exits_zero(self, run_cli):
        code, out, _ = run_cli("flow", "onboard-hardened")
        assert code == 0
        assert "PATH-CLEAN" in out

    def test_insecure_exits_nonzero_with_path_count(self, run_cli):
        code, out, _ = run_cli("flow", "onboard-insecure")
        assert code == 1
        assert "unprotected source->sink path" in out

    def test_all_covers_every_scenario(self, run_cli):
        code, out, _ = run_cli("flow", "all", "--gate", "none")
        assert code == 0
        for name in ("pkes-legacy", "cariad-breach", "onboard-insecure",
                     "onboard-hardened", "maas-platform"):
            assert name in out


class TestWitnessOutput:
    def test_paths_prints_hop_by_hop_witness(self, run_cli):
        _, out, _ = run_cli("flow", "pkes-legacy", "--paths")
        assert "keyfob => immobilizer" in out
        assert "[1] keyfob -> pkes-receiver" in out

    def test_cut_prints_hardening_edges(self, run_cli):
        _, out, _ = run_cli("flow", "pkes-legacy", "--cut")
        assert "secure 1 edge(s)" in out
        assert "body-control->immobilizer" in out


class TestMachineOutput:
    def test_json_validates_and_contains_only_flow_rules(self, run_cli):
        code, out, _ = run_cli("flow", "cariad-breach", "--json")
        assert code == 1
        document = json.loads(out)
        validate_report_dict(document)
        assert {r["id"] for r in document["rules"]} \
            == {"FLOW001", "FLOW002", "FLOW003", "FLOW004"}
        assert document["summary"]["total"] >= 1

    def test_sarif_validates(self, run_cli):
        code, out, _ = run_cli("flow", "onboard-insecure", "--sarif")
        assert code == 1
        document = json.loads(out)
        validate_sarif_dict(document)
        results = document["runs"][0]["results"]
        assert any(r["ruleId"] == "FLOW001" for r in results)

    def test_sarif_clean_run_has_no_results(self, run_cli):
        code, out, _ = run_cli("flow", "onboard-hardened", "--sarif")
        assert code == 0
        document = json.loads(out)
        validate_sarif_dict(document)
        assert document["runs"][0]["results"] == []


class TestGatesAndBaselines:
    def test_gate_none_reports_without_failing(self, run_cli):
        code, _, _ = run_cli("flow", "onboard-insecure",
                             "--gate", "none")
        assert code == 0

    def test_gate_critical_ignores_medium_findings(self, run_cli):
        # maas-platform has FLOW001 criticals; onboard-insecure's FLOW003
        # mediums alone would pass a critical gate
        code, _, _ = run_cli("flow", "maas-platform",
                             "--gate", "critical")
        assert code == 1

    def test_lint_baseline_also_suppresses_flow_findings(self, run_cli,
                                                         tmp_path):
        path = tmp_path / "baseline.json"
        code, _, _ = run_cli("lint", "onboard-insecure",
                             "--write-baseline", str(path))
        assert code == 0
        code, _, _ = run_cli("flow", "onboard-insecure",
                             "--baseline", str(path))
        assert code == 0

    def test_flow_write_baseline_round_trip(self, run_cli, tmp_path):
        path = tmp_path / "baseline.json"
        code, out, _ = run_cli("flow", "onboard-insecure",
                               "--write-baseline", str(path))
        assert code == 0
        assert "wrote baseline" in out
        code, _, _ = run_cli("flow", "onboard-insecure",
                             "--baseline", str(path))
        assert code == 0

    def test_missing_scenario_is_usage_error(self, run_cli):
        code, _, err = run_cli("flow")
        assert code == 2
        assert "scenario" in err

    def test_unknown_scenario_is_usage_error(self, run_cli):
        code, _, err = run_cli("flow", "bogus")
        assert code == 2
        assert "unknown scenario" in err
