"""Sweep reports: summary table / timeline text and a validated JSON doc.

The JSON schema (version ``1.0``) mirrors the ``repro.lint`` and
``repro.obs`` report conventions — small, flat, stable::

    {
      "version": "1.0",
      "tool": {"name": "repro-runner", "version": "<package version>"},
      "sweep": {"jobs", "cache", "baseSeed", "wallS", "treeDigest",
                "interrupted"},
      "experiments": [
        {"id", "status", "exitCode", "durationS", "seed", "retries",
         "cached", "cacheKey", "artifacts": [{"title", "rows"}], "error"}
      ],
      "summary": {"total", "passed", "failed", "errors", "timeouts",
                  "cached", "ok"}
    }

:func:`validate_sweep_dict` checks a parsed document against that
schema and raises :class:`SweepSchemaError` on any violation — the CI
gate and the round-trip tests both call it.
"""

from __future__ import annotations

from repro.core.schema import (BOOL, COUNT, INT, STRING, TEXT, SchemaError,
                               header, integer, list_of, number, obj, one_of,
                               require, validate)
from repro.obs.events import SimEvent
from repro.obs.timeline import render_timeline
from repro.runner.engine import ExperimentResult

__all__ = ["SweepReport", "SweepSchemaError", "validate_sweep_dict"]

SCHEMA_VERSION = "1.0"
TOOL_NAME = "repro-runner"

STATUSES = ("passed", "failed", "error", "timeout", "cached")

_STATUS_TO_SUMMARY = {"passed": "passed", "failed": "failed",
                      "error": "errors", "timeout": "timeouts",
                      "cached": "cached"}

#: The shared :class:`~repro.core.schema.SchemaError`, under its old name.
SweepSchemaError = SchemaError


class SweepReport:
    """Everything one sweep produced, ready to render/export."""

    def __init__(self, results: list[ExperimentResult], *, jobs: int,
                 cache_enabled: bool, base_seed: int, wall_s: float,
                 tree: str, events: list[SimEvent] | None = None,
                 interrupted: bool = False) -> None:
        self.results = list(results)
        self.jobs = jobs
        self.cache_enabled = cache_enabled
        self.base_seed = base_seed
        self.wall_s = wall_s
        self.tree = tree
        self.events = list(events or [])
        #: The sweep stopped early on KeyboardInterrupt; ``results``
        #: holds only the experiments that completed before the signal.
        self.interrupted = interrupted

    # -- verdicts ------------------------------------------------------------

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    def exit_code(self) -> int:
        """130 for an interrupted sweep (signal convention), else 0/1."""
        if self.interrupted:
            return 130
        return 0 if self.ok else 1

    def counts(self) -> dict[str, int]:
        counts = {name: 0 for name in _STATUS_TO_SUMMARY.values()}
        for result in self.results:
            counts[_STATUS_TO_SUMMARY[result.status]] += 1
        return counts

    # -- rendering -----------------------------------------------------------

    def render_timeline(self) -> str:
        return render_timeline(self.events)

    def to_table(self) -> str:
        """Aligned per-experiment summary plus a totals line."""
        width = max([len(r.exp_id) for r in self.results] + [len("id")])
        lines = [f"{'id'.ljust(width)}  {'status':8s}  {'time':>8s}  note",
                 f"{'-' * width}  {'-' * 8}  {'-' * 8}  {'-' * 30}"]
        for result in self.results:
            note = ""
            if result.cached:
                note = "cache hit"
            elif result.retries:
                note = f"after {result.retries} retry"
            if result.error:
                note = (note + "; " if note else "") + result.error
            lines.append(f"{result.exp_id.ljust(width)}  {result.status:8s}  "
                         f"{result.duration_s:7.2f}s  {note}")
        counts = self.counts()
        lines.append(
            f"sweep: {len(self.results)} experiment(s) in {self.wall_s:.2f}s "
            f"with {self.jobs} job(s) — {counts['passed']} passed, "
            f"{counts['cached']} cached, {counts['failed']} failed, "
            f"{counts['errors']} error(s), {counts['timeouts']} timeout(s)"
            + (" [interrupted — partial results]" if self.interrupted
               else ""))
        return "\n".join(lines)

    # -- export --------------------------------------------------------------

    def to_json_dict(self) -> dict:
        """The sweep document (see module docstring for the schema)."""
        from repro import __version__

        counts = self.counts()
        return {
            "version": SCHEMA_VERSION,
            "tool": {"name": TOOL_NAME, "version": __version__},
            "sweep": {
                "jobs": self.jobs,
                "cache": self.cache_enabled,
                "baseSeed": self.base_seed,
                "wallS": self.wall_s,
                "treeDigest": self.tree,
                "interrupted": self.interrupted,
            },
            "experiments": [result.to_dict() for result in self.results],
            "summary": {"total": len(self.results), **counts, "ok": self.ok},
        }


# --------------------------------------------------------------------------
# schema validation
# --------------------------------------------------------------------------

_EXPERIMENT = obj({
    "id": TEXT, "status": one_of(STATUSES), "exitCode": INT,
    "durationS": number(0), "seed": COUNT, "retries": COUNT, "cached": BOOL,
    "cacheKey": STRING, "error": STRING,
    "artifacts": list_of(obj({"title": TEXT, "rows": list_of(STRING)})),
}, check=lambda entry, where: require(
    entry["cached"] == (entry["status"] == "cached"), where,
    "cached flag must match status == 'cached'"))


def _check_summary(document: dict, where: str) -> None:
    summary, experiments = document["summary"], document["experiments"]
    counts = {name: 0 for name in _STATUS_TO_SUMMARY.values()}
    for entry in experiments:
        counts[_STATUS_TO_SUMMARY[entry["status"]]] += 1
    require(summary["total"] == len(experiments), where,
            "summary.total must equal len(experiments)")
    for name, value in counts.items():
        require(summary[name] == value, where,
                f"summary.{name} must count statuses (expected {value})")
    ok = counts["failed"] == counts["errors"] == counts["timeouts"] == 0
    require(summary["ok"] == ok, where,
            "summary.ok must be true iff no failed/error/timeout entries")


_DOCUMENT = obj({
    **header(SCHEMA_VERSION, TOOL_NAME),
    "sweep": obj({"jobs": integer(1), "cache": BOOL, "baseSeed": INT,
                  "wallS": number(0), "treeDigest": TEXT, "interrupted": BOOL}),
    "experiments": list_of(_EXPERIMENT, unique_by="id"),
    "summary": obj({**{name: COUNT for name in ("total", "passed", "failed",
                                                "errors", "timeouts",
                                                "cached")},
                    "ok": BOOL}),
}, check=_check_summary)


def validate_sweep_dict(document: dict) -> None:
    """Raise :class:`SweepSchemaError` unless ``document`` matches."""
    validate(document, _DOCUMENT)
