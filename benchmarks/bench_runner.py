"""BENCH-RUN — experiment shards' parallel speedup and warm-cache cost.

Two claims are pinned here, on the path ``python -m repro run`` takes
(``CampaignEngine`` with the experiment executor):

1. **Parallel dispatch wins wall-clock.** A campaign of sleep-bound
   synthetic experiments (plain-python workers, so overlap does not
   depend on core count) must finish in ≤ 0.5× the sequential wall time
   at ``jobs=4`` — the ≥ 2× speedup the acceptance criteria require.
2. **A warm cache is near-free.** Re-running an unchanged campaign must
   run no bench (each run leaves a line in a log next to the benches)
   and cost a small fraction of the sequential time — just hashing and
   worker start-up.

The synthetic experiments are bench files whose one test sleeps and
shows a table: BENCH-RUN measures the *engine* — scheduling, pooling,
caching — not the experiments, and a registry-driven run of real bench
files would recurse into this very bench.  The measured numbers live in
the tables the bench shows, which ``python -m repro run BENCH-RUN
--json`` records as artifacts.
"""

from __future__ import annotations

from pathlib import Path

from repro.campaign import CampaignEngine, ResultCache, experiment_executor, experiment_spec
from repro.experiments import Experiment

N_TASKS = 8
JOBS = 4
SLEEP_S = 0.6

_SCRIPT = """\
import time
from pathlib import Path


def test_syn{i}(show):
    with open(Path(__file__).with_name("RUN_LOG"), "a") as log:
        log.write("SYN{i}\\n")
    time.sleep({sleep:g})
    show("SYN{i} — synthetic sweep workload", [("slept_s", "{sleep:g}")])
"""


def _make_synthetic(directory: Path, n: int = N_TASKS) -> list[Experiment]:
    experiments = []
    for i in range(n):
        name = f"syn_{i}.py"
        (directory / name).write_text(_SCRIPT.format(i=i, sleep=SLEEP_S))
        experiments.append(Experiment(f"SYN{i}", "-", "synthetic sleep workload",
                                      str(directory / name)))
    return experiments


def _ran(directory: Path) -> list[str]:
    """The experiments whose bench ran so far, in order."""
    log = directory / "RUN_LOG"
    return log.read_text().split() if log.exists() else []


def _sweep(experiments, journals: Path, *, jobs: int, cache: ResultCache | None = None):
    return CampaignEngine(experiment_spec(experiments), jobs=jobs, journal_root=journals,
                          shard_timeout_s=60.0,
                          execute=experiment_executor(experiments, cache)).run()


def test_parallel_speedup_and_warm_cache(show, tmp_path):
    """The acceptance gate: ≥ 2× at jobs=4, warm cache skips everything."""
    directory = tmp_path / "benches"
    directory.mkdir()
    experiments = _make_synthetic(directory)
    cache = ResultCache(tmp_path / "cache")

    sequential = _sweep(experiments, tmp_path / "j1", jobs=1)
    parallel = _sweep(experiments, tmp_path / "j2", jobs=JOBS)
    assert sequential.exit_code() == parallel.exit_code() == 0

    cold = _sweep(experiments, tmp_path / "j3", jobs=JOBS, cache=cache)
    before = len(_ran(directory))
    warm = _sweep(experiments, tmp_path / "j4", jobs=JOBS, cache=cache)
    assert cold.exit_code() == warm.exit_code() == 0
    cached = N_TASKS - (len(_ran(directory)) - before)

    speedup = sequential.wall_s / parallel.wall_s
    show(f"BENCH-RUN — sweep of {N_TASKS} synthetic experiments",
         [("sequential (jobs=1)", f"{sequential.wall_s:7.2f}s", "-"),
          (f"parallel (jobs={JOBS})", f"{parallel.wall_s:7.2f}s",
           f"{speedup:4.2f}x"),
          ("warm cache", f"{warm.wall_s:7.2f}s",
           f"{cached}/{N_TASKS} cached")],
         header=("configuration", "wall", "note"))

    assert parallel.wall_s <= 0.5 * sequential.wall_s, (
        f"jobs={JOBS} took {parallel.wall_s:.2f}s vs sequential "
        f"{sequential.wall_s:.2f}s — speedup {speedup:.2f}x < 2x")
    assert cached == N_TASKS, f"warm sweep re-ran {N_TASKS - cached} task(s)"
    assert warm.to_json_dict() == cold.to_json_dict()
    assert warm.wall_s <= 0.25 * sequential.wall_s, (
        f"warm cache cost {warm.wall_s:.2f}s, expected near-zero")


def test_cache_invalidates_on_workload_change(show, tmp_path):
    """Editing one synthetic bench re-runs exactly that experiment."""
    directory = tmp_path / "benches"
    directory.mkdir()
    experiments = _make_synthetic(directory, 3)
    cache = ResultCache(tmp_path / "cache")

    _sweep(experiments, tmp_path / "j1", jobs=2, cache=cache)
    before = len(_ran(directory))
    (directory / "syn_1.py").write_text(
        _SCRIPT.format(i=1, sleep=0.01) + "# edited\n")
    report = _sweep(experiments, tmp_path / "j2", jobs=2, cache=cache)

    rerun = _ran(directory)[before:]
    show("BENCH-RUN — cache invalidation after editing syn_1.py",
         [(e.exp_id, "re-run" if e.exp_id in rerun else "cached")
          for e in experiments],
         header=("experiment", "status"))
    assert report.exit_code() == 0
    assert rerun == ["SYN1"]
