"""Worker-side execution of one experiment (runs on a supervised worker).

:func:`execute` imports an experiment's bench file by path and calls its
``test_*`` functions in definition order, in the worker's own process.
``benchmark`` calls the kernel once, so no table depends on a timing
harness's round count; ``show`` records each table as ``{"title",
"rows"}``; ``tmp_path`` is a fresh directory per test.  Prints are
captured at the file-descriptor level and dropped; a raising test's
traceback goes to stderr.  There is no timeout here: the supervisor's
budget kills the worker's process group.
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
from pathlib import Path
from types import ModuleType
from typing import Callable

from repro.experiments import format_table

__all__ = ["execute"]


def _run_tests(module: ModuleType, show: Callable) -> tuple[str, str]:
    """Call every test in definition order; returns ``(status, error)``."""
    tests = [(name, value, list(inspect.signature(value).parameters))
             for name, value in vars(module).items()
             if name.startswith("test_") and callable(value)]
    for name, _, params in tests:
        unknown = [p for p in params if p not in ("benchmark", "show", "tmp_path")]
        if unknown:
            return "error", f"{name}: unknown fixture {unknown[0]!r}"
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
    return ("failed", "; ".join(failures)) if failures else ("passed", "")


def execute(spec: dict) -> dict:
    """Run one experiment; takes and returns plain, JSON-ready dicts.

    ``spec`` carries ``id``, ``bench`` (the bench file's path), ``seed``
    (exported as ``REPRO_EXP_SEED`` for the run) and optionally a
    non-zero ``base_seed`` (exported as ``REPRO_BASE_SEED``).  Never
    raises: a raising test is ``failed`` (exit code 1); an import failure
    or unknown fixture is ``error`` (exit code 2).  Both are
    deterministic, so neither is retried.
    """
    artifacts: list[dict] = []

    def show(title: str, rows: list[tuple], header: tuple | None = None) -> None:
        lines = format_table(title, rows, header).splitlines()
        artifacts.append({"title": str(title), "rows": lines[2:]})

    saved_env = {var: os.environ.get(var) for var in ("REPRO_EXP_SEED", "REPRO_BASE_SEED")}
    os.environ["REPRO_EXP_SEED"] = str(spec["seed"])
    if spec.get("base_seed"):
        os.environ["REPRO_BASE_SEED"] = str(spec["base_seed"])
    name = f"repro_bench_{Path(spec['bench']).stem}"
    sys.stdout.flush()
    saved_stdout = os.dup(1)
    t0 = time.perf_counter()
    try:
        with tempfile.TemporaryFile("w") as sink, redirect_stdout(sink):
            os.dup2(sink.fileno(), 1)
            try:
                bench = importlib.util.spec_from_file_location(name, spec["bench"])
                module = importlib.util.module_from_spec(bench)
                sys.modules[name] = module  # dataclasses look their module up here
                bench.loader.exec_module(module)
            except (Exception, SystemExit) as exc:
                traceback.print_exc()
                status = "error"
                error = f"could not import {spec['bench']}: {type(exc).__name__}: {exc}"
            else:
                status, error = _run_tests(module, show)
    finally:
        os.dup2(saved_stdout, 1)
        os.close(saved_stdout)
        sys.modules.pop(name, None)
        for var, value in saved_env.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value
    return {
        "id": spec["id"],
        "status": status,
        "exitCode": {"passed": 0, "failed": 1}.get(status, 2),
        "durationS": time.perf_counter() - t0,
        "seed": spec["seed"],
        "artifacts": artifacts,
        "error": error,
    }
