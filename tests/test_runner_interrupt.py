"""Ctrl-C or SIGTERM while experiments run: partial, schema-valid reports.

Experiments run as campaign shards, so they stop the way a campaign
does: settled shards survive, the rest stay ``pending``, the report
carries ``interrupted: true``, validates against the campaign schema,
and exits 130.  ``repro run`` stops the same way on SIGTERM.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign import validate_campaign_dict
from repro.core.schema import SchemaError
from repro.obs.events import EventKind

SRC = str(Path(__file__).resolve().parents[1] / "src")

SCRIPT = "def test_table(show):\n    show('{exp_id} table', [])\n"


def make_engine(synthetic, count=4, **kwargs):
    experiments = synthetic.write({f"SYN{i}": SCRIPT.format(exp_id=f"SYN{i}")
                                   for i in range(count)})
    return synthetic.engine(experiments, **kwargs)


def after_settled(engine, n, action):
    """Call ``action()`` in the scheduler once n shards have settled."""
    original = engine._emit
    seen = {"n": 0}

    def emit(kind, *args, **fields):
        original(kind, *args, **fields)
        if kind is EventKind.SHARD_DONE:
            seen["n"] += 1
            if seen["n"] >= n:
                action()

    engine._emit = emit


def interrupt_after(engine, n):
    """Deliver a KeyboardInterrupt once n shards have settled."""
    def interrupt():
        raise KeyboardInterrupt

    after_settled(engine, n, interrupt)


class TestSweepInterrupt:
    def test_completed_results_survive_the_interrupt(self, synthetic):
        engine = make_engine(synthetic, jobs=1)
        interrupt_after(engine, 2)
        report = engine.run()  # must NOT re-raise
        assert report.interrupted
        assert report.counts()["ok"] == 2 and report.counts()["pending"] == 2

    def test_partial_report_is_schema_valid_and_flagged(self, synthetic):
        engine = make_engine(synthetic, jobs=1)
        interrupt_after(engine, 1)
        document = engine.run().to_json_dict()
        validate_campaign_dict(document)
        assert document["summary"]["interrupted"] is True
        assert document["summary"]["ok"] == 1
        assert document["summary"]["pending"] == 3

    def test_interrupted_report_exits_130(self, synthetic):
        engine = make_engine(synthetic, jobs=1)
        interrupt_after(engine, 1)
        assert engine.run().exit_code() == 130

    def test_interrupt_beats_failure_in_exit_code(self, synthetic):
        engine = make_engine(synthetic, jobs=1)
        (synthetic.bench_dir / "syn0.py").write_text(
            "def test_fail():\n    raise AssertionError('boom')\n")
        interrupt_after(engine, 1)
        report = engine.run()
        assert report.counts()["error"] == 1
        assert report.exit_code() == 130  # interrupt outranks failure

    def test_table_marks_partial_results(self, synthetic):
        engine = make_engine(synthetic, jobs=1)
        interrupt_after(engine, 1)
        assert "[interrupted]" in engine.run().to_table()

    def test_uninterrupted_sweep_is_unchanged(self, synthetic):
        report = make_engine(synthetic, jobs=2).run()
        assert not report.interrupted
        document = report.to_json_dict()
        validate_campaign_dict(document)
        assert document["summary"]["interrupted"] is False
        assert report.exit_code() == 0
        flat = json.dumps(document)
        assert flat.count('"interrupted"') == 1


class TestValidatorCoversInterrupted:
    def test_non_bool_interrupted_rejected(self, synthetic):
        document = make_engine(synthetic, count=1, jobs=1).run().to_json_dict()
        document["summary"]["interrupted"] = "no"
        with pytest.raises(SchemaError, match="interrupted"):
            validate_campaign_dict(document)


class TestSigterm:
    def test_sigterm_stops_the_sweep_with_partial_results(self, synthetic):
        engine = make_engine(synthetic, jobs=1, install_signal_handlers=True)
        after_settled(engine, 1, lambda: os.kill(os.getpid(), signal.SIGTERM))
        report = engine.run()
        assert report.interrupted and report.exit_code() == 130
        assert 1 <= report.counts()["ok"] < 4
        validate_campaign_dict(report.to_json_dict())

    def test_handlers_are_restored_after_the_block(self, synthetic):
        before = signal.getsignal(signal.SIGTERM)
        make_engine(synthetic, count=1, jobs=1, install_signal_handlers=True).run()
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
        validate_campaign_dict(document)
        assert document["summary"]["interrupted"] is True
        settled = [s["id"] for s in document["shards"] if s["status"] != "pending"]
        assert settled == ["experiment/FIG1/-/s0"]
