"""Deterministic campaign reports and their schema validator.

The campaign report is the artifact the whole crash-safety story is
judged against: a campaign killed at any shard boundary and resumed
must produce a report **byte-identical** to the uninterrupted run.
That forces a hard split between the two kinds of data the engine
holds:

* the *deterministic core* — shard specs, statuses, result documents,
  digests, error strings — which is everything :meth:`to_json_dict`
  serialises, sorted by shard id with a stable key order; and
* *wall-clock bookkeeping* — durations, attempt counts, journal cost —
  which differs between an interrupted and an uninterrupted run by
  construction, so it lives only on the :class:`CampaignReport` object
  (``to_table`` shows it; the JSON never contains it).

``interrupted``/``pending`` describe a *partial* report written at a
graceful checkpoint; a completed campaign always reports
``complete: true`` with zero pending shards, whatever its history of
crashes and resumes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.campaign.shard import result_digest
from repro.campaign.spec import CampaignSpec
from repro.core.schema import (BOOL, COUNT, STRING, TEXT, SchemaError, derived,
                               header, leaf, list_of, nullable, obj, one_of,
                               require, validate)

__all__ = ["CAMPAIGN_SCHEMA_VERSION", "CAMPAIGN_TOOL_NAME", "SHARD_STATUSES",
           "ShardEntry", "CampaignReport", "validate_campaign_dict",
           "campaign_summary", "SchemaError"]

CAMPAIGN_SCHEMA_VERSION = "1.0"
CAMPAIGN_TOOL_NAME = "repro-campaign"

#: Terminal statuses plus ``pending`` (only in interrupted reports).
SHARD_STATUSES = ("ok", "error", "timeout", "quarantined", "pending")


@dataclass
class ShardEntry:
    """One shard's contribution to the report.

    ``attempts``/``duration_s`` are wall-clock bookkeeping for tables
    only — see the module docstring for why they stay out of the JSON.
    ``result`` is in canonical key order, because the engine loads it
    from canonical JSON text (a worker's, or a journal line), so a fresh
    and a replayed result serialize to the same bytes as they are.
    """

    shard: dict
    status: str = "pending"
    result: dict | None = None
    digest: str = ""
    error: str = ""
    attempts: int = 0
    duration_s: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "id": self.shard["id"],
            "tool": self.shard["tool"],
            "scenario": self.shard["scenario"],
            "plan": self.shard["plan"],
            "seed": self.shard["seed"],
            "duration": self.shard["duration"],
            "status": self.status,
            "digest": self.digest,
            "error": self.error,
            "result": self.result,
        }


@dataclass
class CampaignReport:
    """The assembled verdict over every shard of a campaign."""

    spec: CampaignSpec
    entries: dict[str, ShardEntry] = field(default_factory=dict)
    interrupted: bool = False
    wall_s: float = 0.0
    journal_write_s: float = 0.0
    journal_records: int = 0
    resumed_shards: int = 0

    def _ordered(self) -> list[ShardEntry]:
        return [self.entries.get(shard.shard_id,
                                 ShardEntry(shard=shard.to_dict()))
                for shard in self.spec.shards]

    def counts(self) -> dict[str, int]:
        totals = {status: 0 for status in SHARD_STATUSES}
        for entry in self._ordered():
            totals[entry.status] += 1
        return totals

    def to_json_dict(self) -> dict:
        document = {
            "version": CAMPAIGN_SCHEMA_VERSION,
            "tool": {"name": CAMPAIGN_TOOL_NAME,
                     "version": CAMPAIGN_SCHEMA_VERSION},
            "campaign": {
                "id": self.spec.campaign_id,
                "name": self.spec.name,
                "shardCount": len(self.spec),
            },
            "shards": [entry.to_json_dict() for entry in self._ordered()],
        }
        document["summary"] = {**campaign_summary(document),
                               "interrupted": self.interrupted}
        return document

    def exit_code(self) -> int:
        """130 when interrupted (signal convention), 1 on any failure."""
        if self.interrupted:
            return 130
        counts = self.counts()
        failed = counts["error"] + counts["timeout"] + counts["quarantined"]
        return 1 if failed or counts["pending"] else 0

    def to_table(self) -> str:
        """Human-readable summary, wall-clock details included."""
        lines = [f"campaign {self.spec.campaign_id} "
                 f"({len(self.spec)} shards)"]
        for entry in self._ordered():
            marker = {"ok": "+", "pending": "."}.get(entry.status, "!")
            detail = f"{entry.duration_s:.3f}s x{entry.attempts}" \
                if entry.attempts else "-"
            suffix = f"  {entry.error}" if entry.error else ""
            lines.append(f"  {marker} {entry.shard['id']:<44} "
                         f"{entry.status:<11} {detail}{suffix}")
        counts = self.counts()
        lines.append(
            f"  = {counts['ok']} ok, {counts['error']} error, "
            f"{counts['timeout']} timeout, {counts['quarantined']} "
            f"quarantined, {counts['pending']} pending in {self.wall_s:.2f}s"
            + (" [interrupted]" if self.interrupted else ""))
        if self.resumed_shards:
            lines.append(f"  = resumed: {self.resumed_shards} shard(s) "
                         f"replayed from the journal")
        return "\n".join(lines)


def check_outcome(entry: dict, where: str) -> None:
    """A shard is ``ok`` iff it carries a result whose digest matches.

    Holds for report entries and for the journal's ``shard-done``
    records alike.
    """
    status = entry["status"]
    if status == "ok":
        require(entry["result"] is not None, where,
                "is ok but has no result document")
        require(entry["digest"] == result_digest(entry["result"]), where,
                "digest does not match its result document")
    else:
        require(entry["result"] is None, where,
                f"is {status} but carries a result document")
        require(entry["digest"] == "", where, f"is {status} but carries a digest")


def campaign_summary(document: dict) -> dict:
    """The ``summary`` block but ``interrupted``, from the shards."""
    shards = document["shards"]
    counts = Counter(entry["status"] for entry in shards)
    return {"total": len(shards), "ok": counts["ok"],
            "errors": counts["error"], "timeouts": counts["timeout"],
            "quarantined": counts["quarantined"], "pending": counts["pending"],
            "complete": counts["pending"] == 0}


_SUMMARY = derived("summary", campaign_summary)


def _check_document(document: dict, where: str) -> None:
    summary = document["summary"]
    require(document["campaign"]["shardCount"] == len(document["shards"]),
            where, "campaign.shardCount does not match shards")
    _SUMMARY(document, where)
    require(not (summary["complete"] and summary["interrupted"]), where,
            "a complete campaign cannot be interrupted")


#: The fields of :meth:`~repro.campaign.spec.ShardSpec.to_dict`.
SHARD_FIELDS = {"id": TEXT, "tool": TEXT, "scenario": TEXT, "plan": TEXT,
                "seed": COUNT, "duration": COUNT}
#: A shard's result document: opaque, checked only through its digest.
RESULT = nullable(leaf(lambda v: isinstance(v, dict), "an object"))

_DOCUMENT = obj({
    **header(CAMPAIGN_SCHEMA_VERSION, CAMPAIGN_TOOL_NAME),
    "campaign": obj({"id": TEXT, "name": STRING, "shardCount": COUNT}),
    "shards": list_of(obj({
        **SHARD_FIELDS, "status": one_of(SHARD_STATUSES),
        "digest": STRING, "error": STRING, "result": RESULT,
    }, check=check_outcome), nonempty=True, sorted_by="id", unique_by="id"),
    "summary": obj({**{key: COUNT for key in ("total", "ok", "errors",
                                              "timeouts", "quarantined",
                                              "pending")},
                    "complete": BOOL, "interrupted": BOOL}),
}, check=_check_document)


def validate_campaign_dict(document: dict) -> None:
    """Validate a campaign report document; raises :class:`SchemaError`.

    Beyond shape checks, this recomputes every ``ok`` shard's digest
    from its embedded result document — a report whose digests do not
    match their results is evidence of journal tampering or an engine
    bug, and must never validate.
    """
    validate(document, _DOCUMENT)
