"""The ``python -m repro trace`` subcommand and the trace scenarios.

Pins the PR's acceptance criteria: every trace scenario runs, the JSON
output validates against the documented schema with events from at
least two distinct layers, and usage errors exit 2 (matching the lint
CLI conventions).
"""

import json
import subprocess
import sys

import pytest

from repro.lint import scenario_names
from repro.obs import run_trace_scenario, validate_trace_dict
from repro.obs.runtime import OBS, instrumented


class TestScenarios:
    def test_unknown_scenario_raises_with_listing(self):
        with pytest.raises(KeyError, match="available"):
            run_trace_scenario("not-a-scenario")

    @pytest.mark.parametrize("name", scenario_names())
    def test_every_scenario_produces_a_trace(self, name):
        with instrumented() as obs:
            result = run_trace_scenario(name)
        assert isinstance(result, dict) and result
        assert obs.tracer.span_count() >= 1
        assert len(obs.events) >= 2

    @pytest.mark.parametrize("name", ["onboard-hardened", "maas-platform"])
    def test_cross_layer_scenarios_span_two_layers(self, name):
        with instrumented() as obs:
            run_trace_scenario(name)
        assert len({event.layer for event in obs.events}) >= 2, name


class TestCliUsageErrors:
    def test_missing_scenario_exits_2_and_lists_names(self, run_cli):
        code, _, err = run_cli("trace")
        assert code == 2
        assert "onboard-hardened" in err

    def test_unknown_scenario_exits_2(self, run_cli):
        code, _, err = run_cli("trace", "not-a-scenario")
        assert code == 2
        assert "available" in err


class TestCliOutput:
    def test_hardened_table_exits_zero(self, run_cli):
        code, out, _ = run_cli("trace", "onboard-hardened")
        assert code == 0
        assert "=== trace: onboard-hardened ===" in out
        assert "span(s)" in out

    def test_json_is_schema_valid_with_two_layers(self, run_cli):
        code, out, _ = run_cli("trace", "onboard-hardened", "--json")
        assert code == 0
        document = json.loads(out)
        validate_trace_dict(document)
        assert len(document["summary"]["layers"]) >= 2
        assert document["summary"]["events"] >= 2

    def test_json_all_emits_an_array_per_scenario(self, run_cli):
        code, out, _ = run_cli("trace", "all", "--json")
        assert code == 0
        documents = json.loads(out)
        assert [d["scenario"] for d in documents] == scenario_names()
        for document in documents:
            validate_trace_dict(document)

    def test_timeline_flag_prints_only_the_timeline(self, run_cli):
        code, out, _ = run_cli("trace", "cariad-breach", "--timeline")
        assert code == 0
        assert "=== timeline: cariad-breach ===" in out
        assert "attack-step" in out
        assert "wall=" not in out

    def test_metrics_flag_appends_the_table(self, run_cli):
        code, out, _ = run_cli("trace", "onboard-insecure", "--metrics")
        assert code == 0
        assert "ivn.bus.frames_sent" in out

    def test_jsonl_export_round_trips(self, run_cli, tmp_path):
        from repro.obs.events import EventLog

        path = tmp_path / "events.jsonl"
        code, _, err = run_cli("trace", "pkes-legacy",
                               "--jsonl", str(path))
        assert code == 0
        assert "wrote" in err
        log = EventLog.read_jsonl(path)
        assert len(log) >= 2

    @pytest.mark.parametrize("scenario", ["onboard-hardened", "all"])
    def test_jsonl_in_a_fresh_process_holds_every_event(self, tmp_path,
                                                        scenario):
        # A fresh process has no events left over from earlier runs, so
        # the file must hold exactly what --json reports, summed over
        # every scenario of an ``all`` run.
        path = tmp_path / "events.jsonl"
        result = subprocess.run(
            [sys.executable, "-m", "repro", "trace", scenario, "--json",
             "--jsonl", str(path)],
            capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        documents = json.loads(result.stdout)
        if isinstance(documents, dict):
            documents = [documents]
        expected = sum(d["summary"]["events"] for d in documents)
        assert expected > 0
        assert len(path.read_text().splitlines()) == expected
        assert f"wrote {expected} event(s)" in result.stderr

    def test_events_capacity_bounds_the_ring(self, run_cli):
        code, out, _ = run_cli("trace", "onboard-insecure",
                               "--events", "4", "--json")
        assert code == 0
        document = json.loads(out)
        validate_trace_dict(document)
        assert document["summary"]["events"] <= 4

    def test_cli_leaves_instrumentation_disabled(self, run_cli):
        run_cli("trace", "onboard-hardened")
        assert not OBS.enabled
