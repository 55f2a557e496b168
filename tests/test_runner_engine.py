"""Experiments as campaign shards: parallelism, restarts, caching, seeds,
and obs, on the engine and the experiment executor ``repro run`` uses."""

import json
import os
import time

import pytest

from repro.campaign import ResultCache, experiment_executor
from repro.core.rng import derive_seed
from repro.experiments import Experiment
from repro.obs.events import EventKind
from repro.obs.runtime import OBS, instrumented
from repro.obs.timeline import render_timeline
from tests.conftest import by_id

#: Shows the seeds it ran with; appends its id to ``RUN_LOG`` (next to
#: the bench files) each time it runs, so a cache hit is visible.
SCRIPT_OK = """\
import os, time
from pathlib import Path


def test_table(show):
    with open(Path(__file__).with_name("RUN_LOG"), "a") as log:
        log.write("{exp_id}\\n")
    time.sleep(0.02)
    show("{exp_id} table",
         [("seed " + str(os.environ.get("REPRO_EXP_SEED")),),
          ("base " + os.environ.get("REPRO_BASE_SEED", "<unset>"),)])
"""

SCRIPT_FAIL = """\
def test_boom():
    print("stray output")
    assert False, "boom"
"""

SCRIPT_HANG = "import time\n\n\ndef test_hang():\n    time.sleep(60)\n"

#: Fails to import, the same way on every attempt.
SCRIPT_IMPORT_ERROR = "import repro_no_such_module\n\n\ndef test_never():\n    pass\n"

#: Kills its own worker on the first attempt only: the marker file
#: records that the first attempt ran.
SCRIPT_KILL_WORKER_ONCE = """\
import os, signal, time
from pathlib import Path


def test_kill_once(show):
    marker = Path({marker!r})
    if not marker.exists():
        marker.write_text("attempt 0")
        time.sleep(0.5)
        os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(60)
    show("X table", [])
"""

#: Kills its own worker on every attempt.
SCRIPT_KILL_WORKER = """\
import os, signal, time


def test_kill():
    os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(60)
"""

#: Starts a child process, writes its PID, then outlives any sane budget.
SCRIPT_PID_HANG = """\
import subprocess, sys, time
from pathlib import Path


def test_child_hang():
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    Path({pidfile!r}).write_text(str(child.pid))
    time.sleep(60)
"""

#: Prints table-shaped noise but shows two real tables.
SCRIPT_SHOW = """\
def test_tables(show):
    print("collected")
    print("=== not a table ===")
    print(".                  [100%]")
    show("Fig. X — demo", [("row a", 1), ("row b", 2)])
    print("other text")
    show("second", [("only row",)])
"""

#: Prints a bare separator and shows nothing.
SCRIPT_SEPARATOR = "def test_separator():\n    print(\"======\\nrow\")\n"


def ran(synthetic):
    """The experiment ids whose bench ran, in order (``SCRIPT_OK`` only)."""
    log = synthetic.bench_dir / "RUN_LOG"
    return log.read_text().split() if log.exists() else []


def document(report):
    return json.dumps(report.to_json_dict(), indent=2)


def ok_scripts(*ids):
    return {exp_id: SCRIPT_OK.format(exp_id=exp_id) for exp_id in ids}


class TestScheduling:
    def test_parallel_matches_sequential_results(self, synthetic):
        experiments = synthetic.write(ok_scripts("SYN0", "SYN1", "SYN2", "SYN3"))
        sequential = synthetic.engine(experiments, jobs=1).run()
        parallel = synthetic.engine(experiments, jobs=3).run()

        assert sequential.counts()["ok"] == parallel.counts()["ok"] == 4
        # jobs is bookkeeping: the documents are byte-identical
        assert document(sequential) == document(parallel)

    def test_results_keep_registry_order(self, synthetic):
        # The document lists shards sorted by id, so the same experiments
        # asked for in any order give the same bytes.
        experiments = synthetic.write(ok_scripts("B", "A", "C"))
        report = synthetic.engine(experiments, jobs=3).run()
        ids = [shard["id"] for shard in report.to_json_dict()["shards"]]
        assert ids == ["experiment/A/-/s0", "experiment/B/-/s0",
                       "experiment/C/-/s0"]
        reordered = synthetic.engine(experiments[::-1], jobs=3).run()
        assert document(reordered) == document(report)

    def test_failure_is_reported_not_raised(self, synthetic):
        experiments = synthetic.write({"BAD": SCRIPT_FAIL})
        report = synthetic.engine(experiments).run()
        entry = by_id(report)["BAD"]
        assert entry.status == "error" and entry.result is None
        assert report.exit_code() == 1
        assert entry.attempts == 1  # deterministic failures are not retried
        assert entry.error == "test_boom: AssertionError: boom"

    def test_jobs_must_be_positive(self, synthetic):
        experiments = synthetic.write(ok_scripts("X"))
        with pytest.raises(ValueError, match="jobs"):
            synthetic.engine(experiments, jobs=0).run()


def starts(engine):
    return [e for e in engine.events if e.kind is EventKind.SHARD_START]


class TestTimeoutAndRetry:
    def test_timeout_that_consumed_the_budget_is_not_retried(self, synthetic):
        # A timeout spends the whole budget, so it is terminal: a restart
        # with a fresh full budget would double the run's worst case.
        experiments = synthetic.write({"SLOW": SCRIPT_HANG})
        engine = synthetic.engine(experiments, timeout_s=0.3)
        report = engine.run()
        entry = by_id(report)["SLOW"]
        assert entry.status == "timeout"
        assert entry.attempts == 1
        assert "timed out" in entry.error
        assert report.exit_code() == 1
        assert len(starts(engine)) == 1

    def test_timed_out_experiment_leaves_no_surviving_child(self, synthetic, tmp_path):
        # The budget kills the worker's whole process group, so the
        # process the bench's test started dies with it.
        pidfile = tmp_path / "child.pid"
        experiments = synthetic.write(
            {"SLOW": SCRIPT_PID_HANG.format(pidfile=str(pidfile))})
        report = synthetic.engine(experiments, timeout_s=1.0).run()
        assert by_id(report)["SLOW"].status == "timeout"
        pid = int(pidfile.read_text())
        # the killed child is an orphan: it lingers as a zombie until
        # init reaps it, which some inits only do on a timer
        deadline = time.monotonic() + 10.0
        with pytest.raises(ProcessLookupError):
            while time.monotonic() < deadline:
                os.kill(pid, 0)
                time.sleep(0.05)

    def test_worker_death_restarts_with_remaining_budget(self, synthetic, tmp_path):
        # The bench kills its own worker on the first attempt; the
        # experiment restarts on a fresh worker with what is left of its
        # budget, not a fresh one, and then passes.
        marker = tmp_path / "attempted"
        experiments = synthetic.write({
            "X": SCRIPT_KILL_WORKER_ONCE.format(marker=str(marker))})
        engine = synthetic.engine(experiments, timeout_s=30.0)
        entry = by_id(engine.run())["X"]
        assert entry.status == "ok" and entry.attempts == 2
        assert entry.result == {"artifacts": [{"title": "X table", "rows": []}]}
        assert [e.fields["attempt"] for e in starts(engine)] == [0, 1]
        assert starts(engine)[1].fields["budgetS"] <= 29.5

    def test_worker_killed_every_attempt_is_reported_error(self, synthetic):
        experiments = synthetic.write({"X": SCRIPT_KILL_WORKER})
        report = synthetic.engine(experiments, timeout_s=30.0).run()
        entry = by_id(report)["X"]
        assert entry.status == "quarantined" and entry.attempts == 3
        assert "quarantined after 3 worker failure(s)" in entry.error
        assert report.exit_code() == 1

    def test_launch_error_is_not_retried(self, synthetic):
        # A bench file that cannot import fails the same way every time.
        experiments = synthetic.write({"X": SCRIPT_IMPORT_ERROR})
        entry = by_id(synthetic.engine(experiments, timeout_s=5.0).run())["X"]
        assert entry.status == "error" and entry.attempts == 1
        assert "could not import" in entry.error
        assert "repro_no_such_module" in entry.error


class TestCaching:
    def test_warm_run_reports_cached(self, synthetic, tmp_path):
        experiments = synthetic.write(ok_scripts("SYN0", "SYN1"))
        cache = ResultCache(tmp_path / "cache")

        cold = synthetic.engine(experiments, cache=cache, jobs=2).run()
        assert cold.counts()["ok"] == 2 and len(ran(synthetic)) == 2
        warm = synthetic.engine(experiments, cache=cache, jobs=2).run()
        # no bench ran again, and the hits replay the original document
        assert len(ran(synthetic)) == 2
        assert document(warm) == document(cold)

    def test_editing_a_bench_invalidates_only_it(self, synthetic, tmp_path):
        experiments = synthetic.write(ok_scripts("SYN0", "SYN1", "SYN2"))
        cache = ResultCache(tmp_path / "cache")
        synthetic.engine(experiments, cache=cache).run()

        (synthetic.bench_dir / "syn1.py").write_text(
            SCRIPT_OK.format(exp_id="SYN1") + "# touched\n")
        report = synthetic.engine(experiments, cache=cache).run()
        assert report.counts()["ok"] == 3
        assert sorted(ran(synthetic)) == ["SYN0", "SYN1", "SYN1", "SYN2"]

    def test_failures_are_never_cached(self, synthetic, tmp_path):
        experiments = synthetic.write({"BAD": SCRIPT_FAIL})
        cache = ResultCache(tmp_path / "cache")
        synthetic.engine(experiments, cache=cache).run()
        assert len(cache) == 0
        report = synthetic.engine(experiments, cache=cache).run()
        assert by_id(report)["BAD"].status == "error"

    def test_no_cache_skips_lookup_and_store(self, synthetic, tmp_path):
        experiments = synthetic.write(ok_scripts("X"))
        cache = ResultCache(tmp_path / "cache")
        synthetic.engine(experiments, cache=cache).run()
        assert len(cache) == 1
        report = synthetic.engine(experiments, cache=None).run()
        assert by_id(report)["X"].status == "ok"
        assert ran(synthetic) == ["X", "X"]  # not a cache hit
        assert len(cache) == 1

    @pytest.mark.parametrize("entry", [
        {}, [], {"artifacts": None}, {"artifacts": [{"title": "t"}]},
        {"artifacts": [{"title": "t", "rows": [1]}]},
        {"artifacts": [], "status": "passed"},
    ], ids=["empty", "list", "null", "no-rows", "int-row", "extra-key"])
    def test_malformed_entry_is_a_miss_and_overwritten(self, synthetic, tmp_path, entry):
        experiments = synthetic.write(ok_scripts("X"))
        cache = ResultCache(tmp_path / "cache")
        cold = synthetic.engine(experiments, cache=cache).run()
        (path,) = cache.directory.glob("*.json")
        path.write_text(json.dumps(entry))
        warm = synthetic.engine(experiments, cache=cache).run()
        assert ran(synthetic) == ["X", "X"]  # re-run, not a hit
        assert document(warm) == document(cold)
        assert json.loads(path.read_text()) == by_id(cold)["X"].result


class TestSeedSharding:
    def test_seeds_are_deterministic_and_distinct(self, synthetic):
        experiments = synthetic.write(ok_scripts("FIG1", "FIG2"))
        entries = by_id(synthetic.engine(experiments).run())
        rows = {exp_id: entry.result["artifacts"][0]["rows"][0]
                for exp_id, entry in entries.items()}
        assert rows["FIG1"] == f"seed {derive_seed('sweep/FIG1', 0)}"
        assert rows["FIG1"] != rows["FIG2"]

    def test_base_seed_reshards(self, synthetic):
        experiments = synthetic.write(ok_scripts("FIG1"))
        plain = by_id(synthetic.engine(experiments).run())["FIG1"]
        sharded = by_id(synthetic.engine(experiments, base_seed=7).run())["FIG1"]
        assert plain.shard["id"] == "experiment/FIG1/-/s0"
        assert sharded.shard["id"] == "experiment/FIG1/-/s7"
        assert sharded.result["artifacts"][0]["rows"][0] == \
            f"seed {derive_seed('sweep/FIG1', 7)}"
        assert plain.result != sharded.result

    def test_worker_receives_seed_env(self, synthetic):
        experiments = synthetic.write(ok_scripts("X"))
        report = synthetic.engine(experiments, base_seed=5).run()
        rows = by_id(report)["X"].result["artifacts"][0]["rows"]
        assert rows[0] == f"seed {derive_seed('sweep/X', 5)}"
        assert rows[1] == "base 5"


class TestObservability:
    def test_sweep_emits_events_and_metrics(self, synthetic):
        experiments = synthetic.write(ok_scripts("X"))
        engine = synthetic.engine(experiments)
        with instrumented():
            engine.run()
            counters = OBS.metrics.to_json_dict()["counters"]
            spans = list(OBS.tracer.roots)
        assert counters["campaign.shards.scheduled"] == 1
        assert counters["campaign.runs"] == 1
        assert counters["campaign.shards.ok"] == 1
        assert spans[0].name == "campaign.run"
        assert spans[0].tags["shards"] == 1
        events = list(engine.events)
        assert [event.kind for event in events] == [EventKind.SHARD_START,
                                                    EventKind.SHARD_DONE]
        assert events[0].t <= events[1].t

    def test_sweep_timeline_renders_without_obs(self, synthetic):
        experiments = synthetic.write(ok_scripts("X"))
        engine = synthetic.engine(experiments)
        engine.run()
        rendered = render_timeline(list(engine.events))
        assert "shard-start" in rendered
        assert "shard-done" in rendered
        assert "experiment/X/-/s0" in rendered


def run_bench(directory, source, seed=1):
    """Execute one bench file in this process, as a worker would."""
    bench = directory / "bench_syn.py"
    bench.write_text(source)
    execute = experiment_executor([Experiment("SYN", "-", "synthetic", str(bench))])
    return execute({"id": f"experiment/SYN/-/s{seed}", "tool": "experiment",
                    "scenario": "SYN", "plan": "-", "seed": seed, "duration": 0})


class TestArtifactParsing:
    """Artifacts are exactly what ``show`` recorded; prints never count."""

    def test_tables_extracted_with_progress_noise_filtered(self, tmp_path,
                                                           capfd):
        result = run_bench(tmp_path, SCRIPT_SHOW)
        assert result["status"] == "ok"
        # the payload carries the result as canonical JSON text
        assert json.loads(result["result"])["artifacts"] == [
            {"title": "Fig. X — demo", "rows": ["row a  1", "row b  2"]},
            {"title": "second", "rows": ["only row"]},
        ]
        assert capfd.readouterr().out == ""  # the prints stayed captured

    def test_bare_separator_is_not_a_title(self, tmp_path):
        result = run_bench(tmp_path, SCRIPT_SEPARATOR)
        assert result["status"] == "ok"
        assert result["result"] == '{"artifacts":[]}'


class TestExecute:
    def test_unknown_fixture_is_an_error_and_runs_nothing(self, tmp_path):
        marker = tmp_path / "ran"
        result = run_bench(tmp_path, (
            "from pathlib import Path\n\n\n"
            f"def test_first(show):\n    Path({str(marker)!r}).touch()\n\n\n"
            "def test_second(capsys):\n    pass\n"))
        assert result["status"] == "error" and result["result"] is None
        assert result["error"] == "test_second: unknown fixture 'capsys'"
        assert not marker.exists()

    def test_every_test_runs_in_definition_order(self, tmp_path, capfd):
        log = tmp_path / "order"
        result = run_bench(tmp_path, (
            "from pathlib import Path\n\n\n"
            f"def log(name):\n    with open({str(log)!r}, 'a') as f:\n"
            "        f.write(name)\n\n\n"
            "def test_b(show):\n    log('b')\n    show('b', [])\n\n\n"
            "def test_a(show):\n    log('a')\n    assert False\n\n\n"
            "def test_c(show, tmp_path):\n"
            "    assert not any(tmp_path.iterdir())\n    log('c')\n    show('c', [])\n"))
        assert result["status"] == "error" and result["result"] is None
        assert result["error"] == "test_a: AssertionError"
        assert log.read_text() == "bac"
        # an error shard has no result, so its tables go to stderr
        err = capfd.readouterr().err
        assert err.index("=== b ===") < err.index("=== c ===")

    def test_seed_environment_is_restored(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_EXP_SEED", raising=False)
        monkeypatch.setenv("REPRO_BASE_SEED", "3")
        execute = experiment_executor(
            [Experiment("X", "-", "synthetic", str(tmp_path / "x.py"))])
        result = execute({"id": "experiment/X/-/s5", "tool": "experiment",
                          "scenario": "X", "plan": "-", "seed": 5, "duration": 0})
        assert result["status"] == "error"  # no such file
        assert "REPRO_EXP_SEED" not in os.environ
        assert os.environ["REPRO_BASE_SEED"] == "3"

