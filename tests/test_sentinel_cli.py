"""The ``python -m repro sentinel`` subcommand."""

import json

from repro.sentinel import validate_sentinel_dict


class TestTextOutput:
    def test_single_scenario_renders_detection_story(self, run_cli):
        code, out, _ = run_cli("sentinel", "onboard-insecure",
                               "--plan", "severe")
        assert code == 0
        assert "sentinel: onboard-insecure" in out
        assert "first alarm: t=" in out
        assert "incident #" in out
        assert "service level:" in out
        assert "campaign 'severe'" in out

    def test_alarm_and_trust_tables_are_opt_in(self, run_cli):
        _, plain, _ = run_cli("sentinel", "onboard-insecure",
                              "--plan", "severe")
        assert "detector" not in plain.splitlines()[0]
        code, out, _ = run_cli("sentinel", "onboard-insecure",
                               "--plan", "severe", "--alarms", "--trust")
        assert code == 0
        assert "detector" in out and "state" in out      # alarm table
        assert "phase" in out and "collapsed" in out     # trust table

    def test_all_covers_every_scenario(self, run_cli):
        code, out, _ = run_cli("sentinel", "all", "--duration", "20")
        assert code == 0
        for name in ("pkes-legacy", "onboard-insecure", "onboard-hardened",
                     "cariad-breach", "maas-platform"):
            assert f"sentinel: {name}" in out


class TestMachineOutput:
    def test_json_validates(self, run_cli):
        code, out, _ = run_cli("sentinel", "maas-platform", "--json")
        assert code == 0
        document = json.loads(out)
        validate_sentinel_dict(document)
        assert document["scenarios"][0]["scenario"] == "maas-platform"

    def test_report_file_is_byte_identical_across_runs(self, run_cli,
                                                       tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for path in (first, second):
            code, _, err = run_cli("sentinel", "onboard-insecure",
                                   "--plan", "severe", "--base-seed", "42",
                                   "--report", str(path))
            assert code == 0 and "wrote sentinel report" in err
        assert first.read_bytes() == second.read_bytes()
        validate_sentinel_dict(json.loads(first.read_text()))

    def test_base_seed_changes_the_report(self, run_cli, tmp_path):
        paths = []
        for seed in ("0", "1"):
            path = tmp_path / f"seed{seed}.json"
            run_cli("sentinel", "onboard-insecure",
                    "--base-seed", seed, "--report", str(path))
            paths.append(path)
        assert paths[0].read_bytes() != paths[1].read_bytes()


class TestGates:
    def test_clean_gate_passes_on_hardened_baseline(self, run_cli):
        code, _, err = run_cli("sentinel", "onboard-hardened",
                               "--gate", "clean")
        assert code == 0
        assert "failed" not in err

    def test_clean_gate_fails_on_insecure_severe(self, run_cli):
        code, _, err = run_cli("sentinel", "onboard-insecure",
                               "--plan", "severe", "--gate", "clean")
        assert code == 1
        assert "gate 'clean' failed" in err
        assert "ALARM incident(s)" in err

    def test_detect_gate_passes_on_insecure_severe(self, run_cli):
        code, _, err = run_cli("sentinel", "onboard-insecure",
                               "--plan", "severe", "--gate", "detect")
        assert code == 0
        assert "failed" not in err

    def test_detect_gate_fails_on_hardened_baseline(self, run_cli):
        code, _, err = run_cli("sentinel", "onboard-hardened",
                               "--gate", "detect")
        assert code == 1
        assert "no ALARM raised" in err


class TestBadInput:
    def test_missing_scenario_lists_available(self, run_cli):
        code, _, err = run_cli("sentinel")
        assert code == 2
        assert "onboard-hardened" in err

    def test_unknown_scenario_exits_2(self, run_cli):
        code, _, err = run_cli("sentinel", "no-such-scenario")
        assert code == 2
        assert "unknown scenario" in err

    def test_unknown_plan_exits_2(self, run_cli):
        code, _, err = run_cli("sentinel", "onboard-hardened",
                               "--plan", "no-such-plan")
        assert code == 2
        assert "unknown fault plan" in err
