"""The ``python -m repro redteam`` subcommand."""

import json

from repro.lint.sarif import validate_sarif_dict
from repro.redteam import validate_redteam_dict


class TestRedteamCli:
    def test_requires_scenario(self, run_cli):
        code, _, err = run_cli("redteam")
        assert code == 2
        assert "available" in err

    def test_unknown_scenario_exits_two(self, run_cli):
        code, _, err = run_cli("redteam", "nope")
        assert code == 2
        assert "unknown scenario" in err

    def test_summary_table_gates_on_findings(self, run_cli):
        code, out, _ = run_cli("redteam", "pkes-legacy")
        assert code == 1  # RT001 critical >= default 'low' gate
        assert "red-team plan for 'pkes-legacy'" in out
        assert "cheapest: keyfob => immobilizer" in out

    def test_hardened_is_defeated_and_exits_zero(self, run_cli):
        code, out, _ = run_cli("redteam", "onboard-hardened")
        assert code == 0
        assert "DEFEATED" in out

    def test_campaigns_flag_prints_hops(self, run_cli):
        code, out, _ = run_cli("redteam", "pkes-legacy",
                               "--campaigns", "--gate", "none")
        assert code == 0
        assert "#1 keyfob => immobilizer" in out
        assert "defeated by:" in out

    def test_top_limits_output(self, run_cli):
        _, full, _ = run_cli("redteam", "onboard-insecure",
                             "--campaigns", "--gate", "none")
        _, top, _ = run_cli("redteam", "onboard-insecure",
                            "--campaigns", "--top", "1", "--gate", "none")
        assert full.count("=> ") > top.count("=> ")

    def test_json_document_validates(self, run_cli):
        code, out, _ = run_cli("redteam", "all", "--json",
                               "--gate", "none", "--base-seed", "3")
        assert code == 0
        document = json.loads(out)
        validate_redteam_dict(document)
        assert document["baseSeed"] == 3
        assert document["summary"]["defeatedScenarios"] == ["onboard-hardened"]

    def test_json_still_gates(self, run_cli):
        code, out, _ = run_cli("redteam", "pkes-legacy", "--json",
                               "--gate", "critical")
        assert code == 1
        validate_redteam_dict(json.loads(out))

    def test_sarif_log_validates(self, run_cli):
        code, out, _ = run_cli("redteam", "cariad-breach", "--sarif",
                               "--gate", "none")
        assert code == 0
        document = json.loads(out)
        validate_sarif_dict(document)
        rule_ids = {r["id"] for r in
                    document["runs"][0]["tool"]["driver"]["rules"]}
        assert rule_ids == {"RT001", "RT002", "RT003", "RT004"}

    def test_differential_gate_passes_on_shipped_scenarios(self, run_cli):
        code, out, _ = run_cli("redteam", "all", "--differential")
        assert code == 0
        assert out.count("analyzers agree") == 5

    def test_json_output_is_byte_identical(self, run_cli):
        _, first, _ = run_cli("redteam", "all", "--json",
                              "--gate", "none")
        _, second, _ = run_cli("redteam", "all", "--json",
                               "--gate", "none")
        assert first == second
