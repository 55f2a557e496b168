"""Ctrl-C or SIGTERM during a sweep: partial, schema-valid reports.

Before the campaign-engine work, a ``KeyboardInterrupt`` mid-sweep
escaped :meth:`SweepRunner.run` and every already-completed result was
lost with it.  The contract now: completed results survive, the report
carries ``interrupted: true``, validates against the sweep schema, and
exits 130.  ``repro run`` stops the same way on SIGTERM, through the
campaign engine's stop-flag handler.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign.supervisor import stop_on_signals
from repro.experiments import Experiment
from repro.runner import SweepRunner
from repro.runner.report import validate_sweep_dict

SRC = str(Path(__file__).resolve().parents[1] / "src")

SCRIPT = "def test_table(show):\n    show('{exp_id} table', [])\n"


def make_runner(tmp_path, count=4, **kwargs):
    experiments = []
    for i in range(count):
        name = f"syn{i}.py"
        (tmp_path / name).write_text(SCRIPT.format(exp_id=f"SYN{i}"))
        experiments.append(Experiment(f"SYN{i}", "-", "synthetic", name))
    kwargs.setdefault("timeout_s", 30.0)
    return SweepRunner(experiments, bench_dir=tmp_path, digest_paths=[],
                       **kwargs)


def interrupt_after(runner, n):
    """Deliver a KeyboardInterrupt once n live results have recorded."""
    original = runner._record
    seen = {"n": 0}

    def record(result, root):
        original(result, root)
        seen["n"] += 1
        if seen["n"] >= n:
            raise KeyboardInterrupt

    runner._record = record


class TestSweepInterrupt:
    def test_completed_results_survive_the_interrupt(self, tmp_path):
        runner = make_runner(tmp_path, jobs=1)
        interrupt_after(runner, 2)
        report = runner.run()  # must NOT re-raise
        assert report.interrupted
        assert len(report.results) == 2
        assert all(r.status == "passed" for r in report.results)

    def test_partial_report_is_schema_valid_and_flagged(self, tmp_path):
        runner = make_runner(tmp_path, jobs=1)
        interrupt_after(runner, 1)
        document = runner.run().to_json_dict()
        validate_sweep_dict(document)
        assert document["sweep"]["interrupted"] is True
        assert len(document["experiments"]) == 1

    def test_interrupted_report_exits_130(self, tmp_path):
        runner = make_runner(tmp_path, jobs=1)
        interrupt_after(runner, 1)
        assert runner.run().exit_code() == 130

    def test_interrupt_beats_failure_in_exit_code(self, tmp_path):
        runner = make_runner(tmp_path, jobs=1)
        (tmp_path / "syn0.py").write_text(
            "def test_fail():\n    raise AssertionError('boom')\n")
        interrupt_after(runner, 1)
        report = runner.run()
        assert any(r.status == "failed" for r in report.results)
        assert report.exit_code() == 130  # interrupt outranks failure

    def test_table_marks_partial_results(self, tmp_path):
        runner = make_runner(tmp_path, jobs=1)
        interrupt_after(runner, 1)
        assert "[interrupted — partial results]" in runner.run().to_table()

    def test_uninterrupted_sweep_is_unchanged(self, tmp_path):
        report = make_runner(tmp_path, jobs=2).run()
        assert not report.interrupted
        document = report.to_json_dict()
        validate_sweep_dict(document)
        assert document["sweep"]["interrupted"] is False
        assert report.exit_code() == 0
        flat = json.dumps(document)
        assert flat.count('"interrupted"') == 1


class TestValidatorCoversInterrupted:
    def test_non_bool_interrupted_rejected(self, tmp_path):
        document = make_runner(tmp_path, count=1, jobs=1).run().to_json_dict()
        document["sweep"]["interrupted"] = "no"
        with pytest.raises(Exception, match="interrupted"):
            validate_sweep_dict(document)


class TestSigterm:
    def test_sigterm_stops_the_sweep_with_partial_results(self, tmp_path):
        def terminate_self(result):
            os.kill(os.getpid(), signal.SIGTERM)

        runner = make_runner(tmp_path, jobs=1, on_result=terminate_self)
        with stop_on_signals(runner.request_stop):
            report = runner.run()
        assert report.interrupted and report.exit_code() == 130
        assert 1 <= len(report.results) < 4
        validate_sweep_dict(report.to_json_dict())

    def test_handlers_are_restored_after_the_block(self, tmp_path):
        before = signal.getsignal(signal.SIGTERM)
        runner = make_runner(tmp_path, count=1, jobs=1)
        with stop_on_signals(runner.request_stop):
            runner.run()
        assert signal.getsignal(signal.SIGTERM) is before

    def test_repro_run_exits_130_on_sigterm(self, tmp_path):
        cache = tmp_path / "cache"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "run", "FIG1", "TAB1", "--json",
             "--cache-dir", str(cache)],
            env={**os.environ, "PYTHONPATH": SRC}, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        deadline = time.monotonic() + 120.0
        while not list(cache.glob("*.json")) and process.poll() is None \
                and time.monotonic() < deadline:
            time.sleep(0.05)
        process.send_signal(signal.SIGTERM)
        out, err = process.communicate(timeout=120.0)
        if process.returncode == 0:
            pytest.skip("signal landed after the final experiment")
        assert process.returncode == 130, err
        document = json.loads(out)
        validate_sweep_dict(document)
        assert document["sweep"]["interrupted"] is True
        assert [e["id"] for e in document["experiments"]] == ["FIG1"]
