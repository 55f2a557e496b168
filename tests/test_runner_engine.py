"""The sweep scheduler: parallelism, restarts, caching, seeds, and obs."""

import os
import time

import pytest

from repro.core.rng import derive_seed
from repro.experiments import Experiment
from repro.obs.events import EventKind
from repro.obs.runtime import OBS, instrumented
from repro.runner import ResultCache, SweepRunner, execute

SCRIPT_OK = """\
import os, time


def test_table(show):
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


def make_experiments(directory, scripts):
    """scripts: {exp_id: source}; writes files and returns Experiments."""
    experiments = []
    for exp_id, source in scripts.items():
        name = f"{exp_id.lower()}.py"
        (directory / name).write_text(source)
        experiments.append(Experiment(exp_id, "-", "synthetic", name))
    return experiments


def make_runner(experiments, directory, **kwargs):
    kwargs.setdefault("timeout_s", 30.0)
    return SweepRunner(experiments, bench_dir=directory, digest_paths=[],
                       **kwargs)


class TestScheduling:
    def test_parallel_matches_sequential_results(self, tmp_path):
        scripts = {f"SYN{i}": SCRIPT_OK.format(exp_id=f"SYN{i}")
                   for i in range(4)}
        experiments = make_experiments(tmp_path, scripts)
        sequential = make_runner(experiments, tmp_path, jobs=1).run()
        parallel = make_runner(experiments, tmp_path, jobs=3).run()

        assert [r.exp_id for r in sequential.results] == \
               [r.exp_id for r in parallel.results]
        assert [r.status for r in sequential.results] == \
               [r.status for r in parallel.results] == ["passed"] * 4
        assert [r.artifacts for r in sequential.results] == \
               [r.artifacts for r in parallel.results]

    def test_results_keep_registry_order(self, tmp_path):
        scripts = {exp_id: SCRIPT_OK.format(exp_id=exp_id)
                   for exp_id in ("B", "A", "C")}
        experiments = make_experiments(tmp_path, scripts)
        report = make_runner(experiments, tmp_path, jobs=3).run()
        assert [r.exp_id for r in report.results] == ["B", "A", "C"]

    def test_failure_is_reported_not_raised(self, tmp_path):
        experiments = make_experiments(tmp_path, {"BAD": SCRIPT_FAIL})
        report = make_runner(experiments, tmp_path).run()
        result = report.results[0]
        assert result.status == "failed" and result.exit_code == 1
        assert not result.ok and report.exit_code() == 1
        assert result.retries == 0  # deterministic failures are not retried
        assert result.error == "test_boom: AssertionError: boom"

    def test_jobs_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="jobs"):
            make_runner([], tmp_path, jobs=0)


class TestTimeoutAndRetry:
    def test_timeout_that_consumed_the_budget_is_not_retried(self, tmp_path):
        # A timeout spends the whole budget, so it is terminal: a restart
        # with a fresh full budget would double the sweep's worst case.
        experiments = make_experiments(tmp_path, {"SLOW": SCRIPT_HANG})
        report = make_runner(experiments, tmp_path, timeout_s=0.3).run()
        result = report.results[0]
        assert result.status == "timeout"
        assert result.retries == 0
        assert "timed out" in result.error
        assert report.exit_code() == 1
        starts = [e for e in report.events
                  if e.kind is EventKind.EXPERIMENT_START]
        assert len(starts) == 1

    def test_timed_out_experiment_leaves_no_surviving_child(self, tmp_path):
        # The budget kills the worker's whole process group, so the
        # process the bench's test started dies with it.
        pidfile = tmp_path / "child.pid"
        experiments = make_experiments(
            tmp_path, {"SLOW": SCRIPT_PID_HANG.format(pidfile=str(pidfile))})
        report = make_runner(experiments, tmp_path, timeout_s=1.0).run()
        assert report.results[0].status == "timeout"
        pid = int(pidfile.read_text())
        # the killed child is an orphan: it lingers as a zombie until
        # init reaps it, which some inits only do on a timer
        deadline = time.monotonic() + 10.0
        with pytest.raises(ProcessLookupError):
            while time.monotonic() < deadline:
                os.kill(pid, 0)
                time.sleep(0.05)

    def test_worker_death_restarts_with_remaining_budget(self, tmp_path):
        # The bench kills its own worker on the first attempt; the
        # experiment restarts on a fresh worker with what is left of its
        # budget, not a fresh one, and then passes.
        marker = tmp_path / "attempted"
        experiments = make_experiments(tmp_path, {
            "X": SCRIPT_KILL_WORKER_ONCE.format(marker=str(marker))})
        report = make_runner(experiments, tmp_path, timeout_s=30.0).run()
        result = report.results[0]
        assert result.status == "passed" and result.retries == 1
        assert result.artifacts == [{"title": "X table", "rows": []}]
        starts = [e for e in report.events
                  if e.kind is EventKind.EXPERIMENT_START]
        assert [e.fields["attempt"] for e in starts] == [0, 1]
        budget = float(starts[1].message.split("(")[1].split("s budget")[0])
        assert budget <= 29.5

    def test_worker_killed_every_attempt_is_reported_error(self, tmp_path):
        experiments = make_experiments(tmp_path, {"X": SCRIPT_KILL_WORKER})
        report = make_runner(experiments, tmp_path, timeout_s=30.0).run()
        result = report.results[0]
        assert result.status == "error" and result.retries == 2
        assert "quarantined after 3 worker failure(s)" in result.error
        assert report.exit_code() == 1

    def test_launch_error_is_not_retried(self, tmp_path):
        # A bench file that cannot import fails the same way every time.
        experiments = make_experiments(tmp_path, {"X": SCRIPT_IMPORT_ERROR})
        result = make_runner(experiments, tmp_path, timeout_s=5.0).run() \
            .results[0]
        assert result.status == "error" and result.retries == 0
        assert result.exit_code == 2
        assert "could not import" in result.error
        assert "repro_no_such_module" in result.error


class TestCaching:
    def test_warm_run_reports_cached(self, tmp_path):
        bench_dir = tmp_path / "benches"
        bench_dir.mkdir()
        scripts = {f"SYN{i}": SCRIPT_OK.format(exp_id=f"SYN{i}")
                   for i in range(2)}
        experiments = make_experiments(bench_dir, scripts)
        cache = ResultCache(tmp_path / "cache")

        cold = make_runner(experiments, bench_dir, cache=cache, jobs=2).run()
        warm = make_runner(experiments, bench_dir, cache=cache, jobs=2).run()
        assert [r.status for r in cold.results] == ["passed"] * 2
        assert [r.status for r in warm.results] == ["cached"] * 2
        assert all(r.ok for r in warm.results)
        # the cached result replays the original artifacts
        assert [r.artifacts for r in warm.results] == \
               [r.artifacts for r in cold.results]

    def test_editing_a_bench_invalidates_only_it(self, tmp_path):
        bench_dir = tmp_path / "benches"
        bench_dir.mkdir()
        scripts = {f"SYN{i}": SCRIPT_OK.format(exp_id=f"SYN{i}")
                   for i in range(3)}
        experiments = make_experiments(bench_dir, scripts)
        cache = ResultCache(tmp_path / "cache")
        make_runner(experiments, bench_dir, cache=cache).run()

        (bench_dir / "syn1.py").write_text(
            SCRIPT_OK.format(exp_id="SYN1") + "# touched\n")
        report = make_runner(experiments, bench_dir, cache=cache).run()
        statuses = {r.exp_id: r.status for r in report.results}
        assert statuses == {"SYN0": "cached", "SYN1": "passed",
                            "SYN2": "cached"}

    def test_failures_are_never_cached(self, tmp_path):
        bench_dir = tmp_path / "benches"
        bench_dir.mkdir()
        experiments = make_experiments(bench_dir, {"BAD": SCRIPT_FAIL})
        cache = ResultCache(tmp_path / "cache")
        make_runner(experiments, bench_dir, cache=cache).run()
        assert len(cache) == 0
        report = make_runner(experiments, bench_dir, cache=cache).run()
        assert report.results[0].status == "failed"

    def test_no_cache_skips_lookup_and_store(self, tmp_path):
        experiments = make_experiments(
            tmp_path, {"X": SCRIPT_OK.format(exp_id="X")})
        cache = ResultCache(tmp_path / "cache")
        make_runner(experiments, tmp_path, cache=cache).run()
        assert len(cache) == 1
        report = make_runner(experiments, tmp_path, cache=None).run()
        assert report.results[0].status == "passed"  # not a cache hit
        assert report.to_json_dict()["sweep"]["cache"] is False


class TestSeedSharding:
    def test_seeds_are_deterministic_and_distinct(self, tmp_path):
        runner = make_runner([], tmp_path)
        assert runner.seed_for("FIG1") == derive_seed("sweep/FIG1", 0)
        assert runner.seed_for("FIG1") != runner.seed_for("FIG2")

    def test_base_seed_reshards(self, tmp_path):
        plain = make_runner([], tmp_path)
        sharded = make_runner([], tmp_path, base_seed=7)
        assert plain.seed_for("FIG1") != sharded.seed_for("FIG1")
        assert sharded.seed_for("FIG1") == derive_seed("sweep/FIG1", 7)

    def test_worker_receives_seed_env(self, tmp_path):
        experiments = make_experiments(
            tmp_path, {"X": SCRIPT_OK.format(exp_id="X")})
        report = make_runner(experiments, tmp_path, base_seed=5).run()
        rows = report.results[0].artifacts[0]["rows"]
        assert rows[0] == f"seed {derive_seed('sweep/X', 5)}"
        assert rows[1] == "base 5"


class TestObservability:
    def test_sweep_emits_events_and_metrics(self, tmp_path):
        experiments = make_experiments(
            tmp_path, {"X": SCRIPT_OK.format(exp_id="X")})
        with instrumented():
            report = make_runner(experiments, tmp_path).run()
            counters = OBS.metrics.to_json_dict()["counters"]
            spans = list(OBS.tracer.roots)
        assert counters["runner.scheduled"] == 1
        assert counters["runner.completed"] == 1
        assert counters["runner.passed"] == 1
        assert spans[0].name == "runner.sweep"
        assert [child.name for child in spans[0].children] == ["runner.exp.X"]
        kinds = [event.kind for event in report.events]
        assert kinds == [EventKind.EXPERIMENT_START,
                         EventKind.EXPERIMENT_DONE]
        assert report.events[0].t <= report.events[1].t

    def test_sweep_timeline_renders_without_obs(self, tmp_path):
        experiments = make_experiments(
            tmp_path, {"X": SCRIPT_OK.format(exp_id="X")})
        report = make_runner(experiments, tmp_path).run()
        rendered = report.render_timeline()
        assert "experiment-start" in rendered
        assert "experiment-done" in rendered


def run_bench(directory, source):
    """Execute one bench file in this process, as a worker would."""
    path = directory / "bench_syn.py"
    path.write_text(source)
    return execute({"id": "SYN", "bench": str(path), "seed": 1})


class TestArtifactParsing:
    """Artifacts are exactly what ``show`` recorded; prints never count."""

    def test_tables_extracted_with_progress_noise_filtered(self, tmp_path,
                                                           capfd):
        result = run_bench(tmp_path, SCRIPT_SHOW)
        assert result["status"] == "passed"
        assert result["artifacts"] == [
            {"title": "Fig. X — demo", "rows": ["row a  1", "row b  2"]},
            {"title": "second", "rows": ["only row"]},
        ]
        assert capfd.readouterr().out == ""  # the prints stayed captured

    def test_bare_separator_is_not_a_title(self, tmp_path):
        result = run_bench(tmp_path, SCRIPT_SEPARATOR)
        assert result["status"] == "passed"
        assert result["artifacts"] == []


class TestExecute:
    def test_unknown_fixture_is_an_error_and_runs_nothing(self, tmp_path):
        marker = tmp_path / "ran"
        result = run_bench(tmp_path, (
            "from pathlib import Path\n\n\n"
            f"def test_first(show):\n    Path({str(marker)!r}).touch()\n\n\n"
            "def test_second(capsys):\n    pass\n"))
        assert result["status"] == "error" and result["exitCode"] == 2
        assert result["error"] == "test_second: unknown fixture 'capsys'"
        assert not marker.exists()

    def test_every_test_runs_in_definition_order(self, tmp_path):
        result = run_bench(tmp_path, (
            "def test_b(show):\n    show('b', [])\n\n\n"
            "def test_a(show):\n    assert False\n\n\n"
            "def test_c(show, tmp_path):\n"
            "    assert not any(tmp_path.iterdir())\n    show('c', [])\n"))
        assert result["status"] == "failed" and result["exitCode"] == 1
        assert result["error"] == "test_a: AssertionError"
        assert [a["title"] for a in result["artifacts"]] == ["b", "c"]

    def test_seed_environment_is_restored(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_EXP_SEED", raising=False)
        monkeypatch.setenv("REPRO_BASE_SEED", "3")
        result = execute({"id": "X", "bench": str(tmp_path / "x.py"),
                          "seed": 9, "base_seed": 5})
        assert result["status"] == "error"  # no such file
        assert "REPRO_EXP_SEED" not in os.environ
        assert os.environ["REPRO_BASE_SEED"] == "3"
