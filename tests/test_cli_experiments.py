"""Tests for the experiment registry and the `python -m repro` CLI."""

import json
import subprocess
import sys

import pytest

from repro.__main__ import main
from repro.experiments import EXPERIMENTS, benchmarks_dir, find
from repro.runner import validate_sweep_dict


class TestRegistry:
    def test_ids_unique(self):
        ids = [e.exp_id for e in EXPERIMENTS]
        assert len(ids) == len(set(ids))

    def test_every_bench_file_exists(self):
        directory = benchmarks_dir()
        for experiment in EXPERIMENTS:
            assert (directory / experiment.bench_file).is_file(), experiment.exp_id

    def test_every_bench_file_registered(self):
        registered = {e.bench_file for e in EXPERIMENTS}
        on_disk = {p.name for p in benchmarks_dir().glob("bench_*.py")}
        assert on_disk == registered

    def test_find_case_insensitive(self):
        assert find("fig2").exp_id == "FIG2"
        with pytest.raises(KeyError):
            find("FIG99")

    def test_paper_figures_all_covered(self):
        artifacts = {e.paper_artifact for e in EXPERIMENTS}
        for figure in [f"Fig. {i}" for i in range(1, 10)] + ["Table I"]:
            assert figure in artifacts, figure


class TestCli:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True, text=True, timeout=120,
        )

    def test_list(self):
        result = self._run("list")
        assert result.returncode == 0
        for exp_id in ("FIG1", "TAB1", "EXT-7"):
            assert exp_id in result.stdout

    def test_run_unknown_id(self):
        result = self._run("run", "FIG99")
        assert result.returncode == 2
        assert "unknown experiment" in result.stderr

    def test_run_single_experiment(self, tmp_path):
        result = self._run("run", "FIG1", "--cache-dir", str(tmp_path))
        assert result.returncode == 0
        assert "Fig. 1" in result.stdout
        assert "1 passed" in result.stdout

    def test_run_lowercase_id_matches(self, tmp_path):
        result = self._run("run", "fig2", "--cache-dir", str(tmp_path))
        assert result.returncode == 0
        assert "FIG2" in result.stdout


class TestRunnerCli:
    """The sweep flags (--jobs/--no-cache/--json), in-process for speed."""

    def _run(self, capsys, *argv):
        code = main(["run", *argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_unknown_id_with_flags_is_usage_error(self, capsys, tmp_path):
        code, _, err = self._run(capsys, "FIG99", "--jobs", "2",
                                 "--cache-dir", str(tmp_path))
        assert code == 2
        assert "unknown experiment" in err

    def test_bad_jobs_rejected(self, capsys, tmp_path):
        code, _, err = self._run(capsys, "FIG1", "--jobs", "0",
                                 "--cache-dir", str(tmp_path))
        assert code == 2
        assert "--jobs" in err

    def test_json_sweep_validates_then_warm_cache_hits(self, capsys,
                                                       tmp_path):
        code, out, _ = self._run(capsys, "FIG1", "--jobs", "2", "--json",
                                 "--cache-dir", str(tmp_path))
        assert code == 0
        document = json.loads(out)
        validate_sweep_dict(document)
        assert document["sweep"]["jobs"] == 2
        entry = document["experiments"][0]
        assert entry["id"] == "FIG1" and entry["status"] == "passed"
        assert any(a["title"].startswith("Fig. 1")
                   for a in entry["artifacts"])

        code, out, _ = self._run(capsys, "FIG1", "--json",
                                 "--cache-dir", str(tmp_path))
        assert code == 0
        warm = json.loads(out)
        validate_sweep_dict(warm)
        assert warm["experiments"][0]["status"] == "cached"
        assert warm["summary"]["cached"] == 1

        # --no-cache forces a re-run despite the warm cache
        code, out, _ = self._run(capsys, "FIG1", "--json", "--no-cache",
                                 "--cache-dir", str(tmp_path))
        assert code == 0
        fresh = json.loads(out)
        assert fresh["experiments"][0]["status"] == "passed"
        assert fresh["sweep"]["cache"] is False

    def test_multiple_ids_deduplicated(self, capsys, tmp_path):
        code, out, _ = self._run(capsys, "FIG1", "fig1", "--json",
                                 "--cache-dir", str(tmp_path))
        assert code == 0
        document = json.loads(out)
        assert [e["id"] for e in document["experiments"]] == ["FIG1"]

    def test_artifacts_repeat_across_runs_and_jobs(self, capsys):
        # Each bench kernel runs exactly once, so FIG9's cascade table and
        # EXP-C2's offset-insider table cannot depend on how many timing
        # rounds a harness picked, nor on how experiments share workers.
        runs = []
        for jobs in ("1", "1", "2"):
            code, out, _ = self._run(capsys, "FIG9", "EXP-C2", "--json",
                                     "--no-cache", "--jobs", jobs)
            assert code == 0
            runs.append([e["artifacts"] for e in json.loads(out)["experiments"]])
        assert runs[0] == runs[1] == runs[2]
        assert all(len(artifacts) == 3 for artifacts in runs[0])
