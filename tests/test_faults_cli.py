"""The ``python -m repro chaos`` subcommand."""

import json

from repro.faults import validate_chaos_dict


class TestTextOutput:
    def test_single_scenario_renders_layers_and_level(self, run_cli):
        code, out, _ = run_cli("chaos", "onboard-hardened")
        assert code == 0
        assert "onboard-hardened" in out
        for label in ("physical", "network", "data", "software_platform"):
            assert label in out
        assert "service level" in out
        assert "campaign 'baseline'" in out

    def test_all_covers_every_scenario(self, run_cli):
        code, out, _ = run_cli("chaos", "all", "--duration", "20")
        assert code == 0
        for name in ("pkes-legacy", "onboard-insecure", "onboard-hardened",
                     "cariad-breach", "maas-platform"):
            assert name in out


class TestMachineOutput:
    def test_json_validates(self, run_cli):
        code, out, _ = run_cli("chaos", "maas-platform", "--json")
        assert code == 0
        document = json.loads(out)
        validate_chaos_dict(document)
        assert document["scenarios"][0]["scenario"] == "maas-platform"

    def test_report_file_is_byte_identical_across_runs(self, run_cli,
                                                       tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for path in (first, second):
            code, _, err = run_cli("chaos", "onboard-hardened",
                                   "--plan", "severe", "--base-seed", "42",
                                   "--report", str(path))
            assert code == 0 and "wrote chaos report" in err
        assert first.read_bytes() == second.read_bytes()
        validate_chaos_dict(json.loads(first.read_text()))

    def test_base_seed_changes_the_report(self, run_cli, tmp_path):
        paths = []
        for seed in ("0", "1"):
            path = tmp_path / f"seed{seed}.json"
            run_cli("chaos", "onboard-insecure",
                    "--base-seed", seed, "--report", str(path))
            paths.append(path)
        assert paths[0].read_bytes() != paths[1].read_bytes()


class TestUsageErrors:
    def test_missing_scenario_lists_available(self, run_cli):
        code, _, err = run_cli("chaos")
        assert code == 2
        assert "onboard-hardened" in err

    def test_unknown_scenario(self, run_cli):
        code, _, err = run_cli("chaos", "warp-core")
        assert code == 2
        assert "unknown scenario" in err

    def test_unknown_plan(self, run_cli):
        code, _, err = run_cli("chaos", "pkes-legacy",
                               "--plan", "apocalypse")
        assert code == 2
        assert "unknown fault plan" in err
