"""Worker-side execution of one paper-experiment shard.

An experiment shard is ``ShardSpec(tool=EXPERIMENT_TOOL, scenario=<id>,
seed=<base seed>)``; :func:`experiment_spec` builds the campaign for a
set of :data:`repro.experiments.EXPERIMENTS` and
:func:`experiment_executor` the function ``CampaignEngine(execute=...)``
hands the supervised workers for it.

:func:`run_bench` imports an experiment's bench file by path and calls
its ``test_*`` functions in definition order, in the worker's own
process.  ``benchmark`` calls the kernel once, so no table depends on a
timing harness's round count; ``show`` records each table as
``{"title", "rows"}``; ``tmp_path`` is a fresh directory per test.
Prints are captured at the file-descriptor level and dropped; a raising
test's traceback goes to stderr.  There is no timeout here: the
supervisor's budget kills the worker's process group.

The shard's result document is ``{"artifacts": [{"title", "rows"}]}``;
like :func:`~repro.campaign.shard.execute_shard`, the executor returns
through :func:`~repro.campaign.shard.payload`, so the payload carries it
as canonical JSON text, encoded once here.
Before running a bench the executor looks its key up in the
:class:`~repro.campaign.cache.ResultCache`; only an entry of exactly
that shape is a hit, and anything else is re-run and overwritten.  Only
passes are stored, each as soon as it lands, so a killed ``repro run``
resumes by re-running only what never passed.  A failing test, an
import failure or an unknown fixture makes the shard ``error``; each is
deterministic, so none is retried.
"""

from __future__ import annotations

import importlib.util
import inspect
import os
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stdout
from functools import partial
from pathlib import Path
from types import ModuleType
from typing import Callable, Iterable, Mapping

from repro.campaign.cache import ResultCache, experiment_key, tree_digest
from repro.campaign.shard import canonical_json, payload
from repro.campaign.spec import EXPERIMENT_TOOL, CampaignSpec, ShardSpec
from repro.core.rng import derive_seed
from repro.core.schema import STRING, SchemaError, list_of, obj, validate
from repro.experiments import Experiment, benchmarks_dir, format_table

__all__ = ["execute_experiment", "experiment_executor", "experiment_spec",
           "run_bench"]

#: The result document of a passed experiment, and of a cache hit.
_RESULT = obj({"artifacts": list_of(obj({"title": STRING,
                                         "rows": list_of(STRING)}))})


def experiment_spec(experiments: Iterable[Experiment],
                    base_seed: int = 0) -> CampaignSpec:
    """One static shard per experiment, sorted by shard id."""
    shards = sorted((ShardSpec(tool=EXPERIMENT_TOOL, scenario=e.exp_id,
                               seed=base_seed) for e in experiments),
                    key=lambda shard: shard.shard_id)
    return CampaignSpec(shards=tuple(shards))


def _run_tests(module: ModuleType, show: Callable) -> str:
    """Call every test in definition order; returns the error, or ``""``."""
    tests = [(name, value, list(inspect.signature(value).parameters))
             for name, value in vars(module).items()
             if name.startswith("test_") and callable(value)]
    for name, _, params in tests:
        unknown = [p for p in params if p not in ("benchmark", "show", "tmp_path")]
        if unknown:
            return f"{name}: unknown fixture {unknown[0]!r}"
    failures = []
    for name, test, params in tests:
        with tempfile.TemporaryDirectory(ignore_cleanup_errors=True) as tmp:
            fixtures = {"benchmark": lambda kernel, *args, **kwargs: kernel(*args, **kwargs),
                        "show": show, "tmp_path": Path(tmp)}
            try:
                test(**{p: fixtures[p] for p in params})
            except (Exception, SystemExit) as exc:
                traceback.print_exc()
                message = str(exc).strip().splitlines()[:1]
                failures.append(": ".join([name, type(exc).__name__, *message]))
    return "; ".join(failures)


def run_bench(bench: str, seed: int, base_seed: int = 0) -> tuple[str, list[dict]]:
    """Run one bench file; returns ``(error, artifacts)``, error ``""`` on a pass.

    ``seed`` is exported as ``REPRO_EXP_SEED`` and a non-zero
    ``base_seed`` as ``REPRO_BASE_SEED`` for the run; both are restored
    after it.  Never raises.
    """
    artifacts: list[dict] = []

    def show(title: str, rows: list[tuple], header: tuple | None = None) -> None:
        lines = format_table(title, rows, header).splitlines()
        artifacts.append({"title": str(title), "rows": lines[2:]})

    saved_env = {var: os.environ.get(var) for var in ("REPRO_EXP_SEED", "REPRO_BASE_SEED")}
    os.environ["REPRO_EXP_SEED"] = str(seed)
    if base_seed:
        os.environ["REPRO_BASE_SEED"] = str(base_seed)
    name = f"repro_bench_{Path(bench).stem}"
    sys.stdout.flush()
    saved_stdout = os.dup(1)
    try:
        with tempfile.TemporaryFile("w") as sink, redirect_stdout(sink):
            os.dup2(sink.fileno(), 1)
            try:
                spec = importlib.util.spec_from_file_location(name, bench)
                module = importlib.util.module_from_spec(spec)
                sys.modules[name] = module  # dataclasses look their module up here
                spec.loader.exec_module(module)
            except (Exception, SystemExit) as exc:
                traceback.print_exc()
                error = f"could not import {bench}: {type(exc).__name__}: {exc}"
            else:
                error = _run_tests(module, show)
    finally:
        os.dup2(saved_stdout, 1)
        os.close(saved_stdout)
        sys.modules.pop(name, None)
        for var, value in saved_env.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value
    return error, artifacts


def _cached(cache: ResultCache, key: str) -> dict | None:
    document = cache.get(key)
    try:
        validate(document, _RESULT)
    except SchemaError:
        return None
    return document


def execute_experiment(shard: dict, *, benches: Mapping[str, str],
                       cache: ResultCache | None = None, tree: str = "") -> dict:
    """Run one experiment shard; returns its :func:`~repro.campaign.shard.payload`.

    ``benches`` maps experiment ids to bench file paths; ``tree`` is the
    digest of the source tree every result depends on, part of each
    cache key.
    """
    t0 = time.perf_counter()
    exp_id, base_seed = str(shard["scenario"]), int(shard["seed"])
    bench = benches.get(exp_id, "")
    key = experiment_key(exp_id, Path(bench), tree=tree, base_seed=base_seed)
    result = _cached(cache, key) if cache is not None else None
    error = ""
    if result is None:
        error, artifacts = run_bench(bench, derive_seed(f"sweep/{exp_id}", base_seed),
                                     base_seed)
        if error:
            # an error shard carries no result: its tables go with its traceback
            for artifact in artifacts:
                print("\n".join([f"=== {artifact['title']} ===", *artifact["rows"]]),
                      file=sys.stderr)
        else:
            result = {"artifacts": artifacts}
            if cache is not None:
                cache.put(key, result)
    return payload(shard, None if result is None else canonical_json(result), error, t0)


def experiment_executor(experiments: Iterable[Experiment],
                        cache: ResultCache | None = None) -> Callable[[dict], dict]:
    """The worker function for ``CampaignEngine(execute=...)``.

    Bench files resolve under the repository's ``benchmarks`` directory
    (an absolute ``bench_file`` is taken as is); with a cache, every key
    covers the ``src/repro`` tree, hashed once here rather than in every
    worker.
    """
    benches = {e.exp_id: str(benchmarks_dir() / e.bench_file) for e in experiments}
    tree = tree_digest([Path(__file__).resolve().parents[1]]) if cache is not None else ""
    return partial(execute_experiment, benches=benches, cache=cache, tree=tree)
