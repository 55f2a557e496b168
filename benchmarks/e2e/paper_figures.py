"""``paper-figures``: the 24 paper experiments, as a reader regenerates them.

One op is one experiment of ``repro.experiments.EXPERIMENTS`` (FIG1-9,
TAB1, EXP/ABL/EXT): every test function of its ``benchmarks/bench_*.py``
file, imported unchanged and called in-process with a pass-through
``benchmark`` that calls the kernel once and a ``show`` that captures
the rows.  This skips pytest-benchmark's calibration rounds, which time
the harness, not the program.  One step is one pass over all 24, so
every experiment is sampled equally often; the time to regenerate every
figure is 24 / ``ops_per_s``.  Each experiment's rows must match the
ones its warm-up run produced.

The seed goes in as ``REPRO_BASE_SEED``.  A few base seeds (8 and 14,
for example) make EXT-2's own statistical assertion fail; the workload
then moves on to the next candidate base seed, so that no op fails by
construction.
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys
from time import perf_counter

from harness import REPO, Step

from repro.experiments import EXPERIMENTS

NAME = "paper-figures"
PAPER_EXPERIMENTS = tuple(e for e in EXPERIMENTS if not e.exp_id.startswith("BENCH-"))
DIGEST_STEPS = 1
BASE_SEED_STRIDE = 1_000_000
BASE_SEED_TRIES = 8


def _passthrough(kernel, *args, **kwargs):
    return kernel(*args, **kwargs)


def _load(bench_file: str):
    """Import one bench file as module ``e2e_<name>``."""
    name = "e2e_" + bench_file.removesuffix(".py")
    spec = importlib.util.spec_from_file_location(name, REPO / "benchmarks" / bench_file)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _tests(bench_file: str) -> list:
    module = _load(bench_file)
    return [getattr(module, attr) for attr in sorted(vars(module))
            if attr.startswith("test_") and callable(getattr(module, attr))]


#: (experiment id, test functions), loaded when this module is imported.
EXPERIMENT_TESTS = [(e.exp_id, _tests(e.bench_file)) for e in PAPER_EXPERIMENTS]


def run_experiment(tests: list) -> tuple[bool, bytes]:
    """Call an experiment's test functions; returns (passed, captured rows)."""
    tables = []

    def show(title, rows, header=None):
        tables.append([str(title), [str(c) for c in header] if header else None,
                       [[str(c) for c in row] for row in rows]])

    passed = True
    for test in tests:
        try:
            test(_passthrough, show)
        except AssertionError:
            passed = False
    return passed, json.dumps(tables).encode()


def base_seeds(seed: int) -> list[int]:
    """The candidate ``REPRO_BASE_SEED`` values for ``seed``, in order."""
    return [seed + k * BASE_SEED_STRIDE for k in range(BASE_SEED_TRIES)]


class World:
    def __init__(self, seed: int) -> None:
        for base_seed in base_seeds(seed):
            os.environ["REPRO_BASE_SEED"] = str(base_seed)
            warmup = [run_experiment(tests) for _, tests in EXPERIMENT_TESTS]
            if all(passed for passed, _ in warmup):
                break
        else:
            raise RuntimeError(f"no base seed for seed {seed} passes every experiment")
        self.base_seed = base_seed
        self.expected = [rows for _, rows in warmup]

    def step(self, i: int) -> Step:
        oks, latencies, material = [], [], []
        for (exp_id, tests), expected in zip(EXPERIMENT_TESTS, self.expected):
            t0 = perf_counter()
            passed, rows = run_experiment(tests)
            latencies.append(perf_counter() - t0)
            oks.append(passed and rows == expected)
            material.append(exp_id.encode() + rows)
        return Step(oks, b"\n".join(material), latencies)


def build(seed: int) -> World:
    return World(seed)
