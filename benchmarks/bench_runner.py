"""BENCH-RUN — the sweep runner's parallel speedup and warm-cache cost.

Two claims are pinned here, per the ``repro.runner`` design contract:

1. **Parallel dispatch wins wall-clock.** A sweep of sleep-bound
   synthetic experiments (plain-python workers, so overlap does not
   depend on core count) must finish in ≤ 0.5× the sequential wall time
   at ``jobs=4`` — the ≥ 2× speedup the acceptance criteria require.
2. **A warm cache is near-free.** Re-running an unchanged sweep must
   skip every experiment (all reported ``cached``) and cost a small
   fraction of the sequential time — just hashing, no workers.

The synthetic experiments are bench files whose one test sleeps and
shows a table: BENCH-RUN measures the *engine* — scheduling, pooling,
caching — not the experiments, and a registry-driven sweep of real
bench files would recurse into this very bench.  The measured numbers
are exported through the observability layer's JSON metrics format
into ``BENCH_RUNNER.json`` at the repo root, extending the benchmark
trajectory BENCH-OBS seeded.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments import Experiment
from repro.obs import MetricsRegistry
from repro.runner import ResultCache, SweepRunner

N_TASKS = 8
JOBS = 4
SLEEP_S = 0.6

_REPO_ROOT = Path(__file__).resolve().parent.parent

_SCRIPT = """\
import time


def test_syn{i}(show):
    time.sleep({sleep:g})
    show("SYN{i} — synthetic sweep workload", [("slept_s", "{sleep:g}")])
"""


def _make_synthetic(directory: Path, n: int = N_TASKS) -> list[Experiment]:
    experiments = []
    for i in range(n):
        name = f"syn_{i}.py"
        (directory / name).write_text(_SCRIPT.format(i=i, sleep=SLEEP_S))
        experiments.append(Experiment(f"SYN{i}", "-",
                                      "synthetic sleep workload", name))
    return experiments


def _sweep(experiments, directory: Path, *, jobs: int,
           cache: ResultCache | None = None):
    runner = SweepRunner(
        experiments, jobs=jobs, cache=cache,
        bench_dir=directory, timeout_s=60.0, digest_paths=[])
    return runner.run()


def _export(registry: MetricsRegistry) -> Path:
    path = _REPO_ROOT / "BENCH_RUNNER.json"
    path.write_text(json.dumps(registry.to_json_dict(), indent=2) + "\n")
    return path


def test_parallel_speedup_and_warm_cache(show, tmp_path):
    """The acceptance gate: ≥ 2× at jobs=4, warm cache skips everything."""
    directory = tmp_path / "benches"
    directory.mkdir()
    experiments = _make_synthetic(directory)
    cache = ResultCache(tmp_path / "cache")

    sequential = _sweep(experiments, directory, jobs=1)
    parallel = _sweep(experiments, directory, jobs=JOBS)
    assert sequential.ok and parallel.ok

    cold = _sweep(experiments, directory, jobs=JOBS, cache=cache)
    warm = _sweep(experiments, directory, jobs=JOBS, cache=cache)
    assert cold.ok and warm.ok
    cached = sum(1 for result in warm.results if result.cached)

    speedup = sequential.wall_s / parallel.wall_s
    registry = MetricsRegistry()
    registry.gauge("bench.runner.tasks").set(N_TASKS)
    registry.gauge("bench.runner.jobs").set(JOBS)
    registry.gauge("bench.runner.sequential_s").set(sequential.wall_s)
    registry.gauge("bench.runner.parallel_s").set(parallel.wall_s)
    registry.gauge("bench.runner.speedup").set(speedup)
    registry.gauge("bench.runner.warm_cache_s").set(warm.wall_s)
    registry.gauge("bench.runner.warm_cached_count").set(cached)
    path = _export(registry)

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
    assert warm.wall_s <= 0.25 * sequential.wall_s, (
        f"warm cache cost {warm.wall_s:.2f}s, expected near-zero")
    assert path.exists()


def test_cache_invalidates_on_workload_change(show, tmp_path):
    """Editing one synthetic bench re-runs exactly that experiment."""
    directory = tmp_path / "benches"
    directory.mkdir()
    experiments = _make_synthetic(directory, 3)
    cache = ResultCache(tmp_path / "cache")

    _sweep(experiments, directory, jobs=2, cache=cache)
    (directory / "syn_1.py").write_text(
        _SCRIPT.format(i=1, sleep=0.01) + "# edited\n")
    report = _sweep(experiments, directory, jobs=2, cache=cache)

    by_id = {result.exp_id: result for result in report.results}
    show("BENCH-RUN — cache invalidation after editing syn_1.py",
         [(exp_id, result.status) for exp_id, result in sorted(by_id.items())],
         header=("experiment", "status"))
    assert by_id["SYN0"].cached and by_id["SYN2"].cached
    assert not by_id["SYN1"].cached and by_id["SYN1"].status == "passed"
