"""Worker-side execution of one experiment (runs in a pool process).

:func:`execute` is the function the sweep's supervised workers run, so
it takes and returns plain dicts (picklable, JSON-ready).  It runs the
experiment's bench file as a subprocess, classifies the outcome, and
parses the ``=== title ===`` artifact tables the bench harness prints
into structured rows — the per-experiment payload the sweep report and
the result cache both store.  It has no timeout of its own: the
supervisor's per-experiment budget kills the worker's whole process
group, bench subprocess included.
"""

from __future__ import annotations

import os
import re
import subprocess
import time

__all__ = ["execute", "parse_artifacts", "OUTPUT_TAIL_CHARS"]

#: How much trailing stdout/stderr a result keeps for display.
OUTPUT_TAIL_CHARS = 4000

#: pytest progress lines (``.  [100%]``) that leak between artifact rows.
_PROGRESS_RE = re.compile(r"^[.FEsxX]*\s*\[\s*\d+%\]$")


def parse_artifacts(stdout: str) -> list[dict]:
    """Extract ``=== title ===`` tables from a bench run's stdout.

    Each table is the contiguous block of non-blank lines following its
    banner; pytest's own progress markers are filtered out so the rows
    are identical whether the bench ran alone or inside a sweep.
    """
    artifacts: list[dict] = []
    current: dict | None = None
    for raw in stdout.splitlines():
        line = raw.rstrip()
        stripped = line.strip()
        if stripped.startswith("===") and stripped.endswith("===") and \
                stripped.strip("=").strip():
            current = {"title": stripped.strip("=").strip(), "rows": []}
            artifacts.append(current)
        elif current is not None:
            if not stripped:
                current = None
            elif not _PROGRESS_RE.match(stripped):
                current["rows"].append(line)
    return artifacts


def _tail(text: str) -> str:
    return text[-OUTPUT_TAIL_CHARS:] if len(text) > OUTPUT_TAIL_CHARS else text


def execute(spec: dict) -> dict:
    """Run one experiment to completion inside a worker process.

    ``spec`` carries: ``id``, ``command`` (argv list), ``seed``
    (exported as ``REPRO_EXP_SEED``), and optionally ``base_seed``
    (exported as ``REPRO_BASE_SEED`` when non-zero, which re-shards
    every ``repro.core.rng`` stream in the bench).

    Never raises on experiment trouble — failures and launch errors both
    come back as a status, and neither is retried: both are
    deterministic.  Statuses: ``passed`` | ``failed`` | ``error``.
    """
    env = dict(os.environ)
    env["REPRO_EXP_SEED"] = str(spec["seed"])
    if spec.get("base_seed"):
        env["REPRO_BASE_SEED"] = str(spec["base_seed"])

    t0 = time.perf_counter()
    stdout, stderr, error = "", "", ""
    try:
        proc = subprocess.run(list(spec["command"]), capture_output=True,
                              text=True, env=env)
        stdout, stderr = proc.stdout or "", proc.stderr or ""
        status = "passed" if proc.returncode == 0 else "failed"
        exit_code = proc.returncode
    except OSError as exc:
        status, exit_code = "error", -1
        error = f"could not launch worker command: {exc}"
    duration_s = time.perf_counter() - t0

    return {
        "id": spec["id"],
        "status": status,
        "exitCode": exit_code,
        "durationS": duration_s,
        "seed": spec["seed"],
        "artifacts": parse_artifacts(stdout),
        "outputTail": _tail(stdout if stdout else stderr),
        "error": error,
    }
