"""Append-only write-ahead journal for crash-safe campaigns.

The journal is the campaign engine's single source of durable truth:
one JSONL file per campaign (``<journal-root>/<id>/journal.jsonl``)
holding typed records.  :meth:`Journal.append` writes and flushes a
record, which then survives a kill of the writing process;
:meth:`Journal.commit` fsyncs every record appended since the last
commit, which then survives a power cut.  The engine commits once per
scheduler pass, before that pass dispatches anything, and again at
campaign end and on interrupt, so a record is durable before the engine
acts on it.  The protocol is the classic WAL discipline:

* ``campaign-start`` — the full :class:`~repro.campaign.spec.CampaignSpec`,
  written once before any shard is dispatched (resume rebuilds the
  matrix from this record alone);
* ``shard-start`` — intent to execute an attempt (a start without a
  matching ``shard-done`` means the crash landed mid-shard; resume
  simply re-executes it).  A lookahead shard is journaled when it is
  sent, before its worker starts it; if that worker dies first, the
  shard goes back to the queue uncharged and is journaled again when it
  is resent, so after a worker death :attr:`JournalState.starts` can
  exceed the attempts actually made by one.  Start counts never reach
  the report;
* ``shard-done`` — the shard's terminal outcome, embedding the result
  document and its digest (resume replays these instead of re-running);
* ``shard-quarantined`` — a poison shard retired after repeated worker
  deaths (terminal: resume must *not* retry it, or a resumed report
  would diverge from the uninterrupted one);
* ``interrupt`` — a graceful SIGINT/SIGTERM checkpoint;
* ``campaign-end`` — the campaign completed and the final report was
  assembled.

Every record carries a sequence number and a content checksum.  A
*trailing* record that fails to parse or verify is a torn write from
the crash itself and is dropped (and cut off before the next append);
a corrupt record anywhere else means the file was tampered with or the
disk is lying, and replay refuses with :class:`JournalCorrupt` rather
than resuming from fiction.  So does a checksum-valid record whose
fields do not have the shape the engine writes.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO

from repro.campaign.report import RESULT, SHARD_FIELDS
from repro.core.schema import (COUNT, NUMBER, STRING, TEXT, SchemaError, list_of,
                               obj, one_of)

__all__ = ["RECORD_TYPES", "Journal", "JournalCorrupt", "JournalState",
           "read_records", "replay"]

RECORD_TYPES = ("campaign-start", "shard-start", "shard-done",
                "shard-quarantined", "interrupt", "campaign-end")

#: Terminal shard-outcome statuses a ``shard-done`` record may carry.
DONE_STATUSES = ("ok", "error", "timeout")

_FRAME = {"type": TEXT, "seq": COUNT}
_SHARD = {**_FRAME, "shardId": TEXT}

#: The shape of each record type, as the engine writes it.
_RECORDS = {
    "campaign-start": obj({**_FRAME, "campaign": obj({
        "id": TEXT, "name": STRING,
        "shards": list_of(obj(SHARD_FIELDS), nonempty=True)})}),
    "shard-start": obj({**_SHARD, "attempt": COUNT}),
    "shard-done": obj({**_SHARD, "status": one_of(DONE_STATUSES),
                       "result": RESULT, "digest": STRING, "error": STRING,
                       "attempts": COUNT, "durationS": NUMBER}),
    "shard-quarantined": obj({**_SHARD, "error": STRING, "attempts": COUNT,
                              "durationS": NUMBER,
                              "failures": list_of(STRING)}),
    "interrupt": obj({**_FRAME, "settled": COUNT}, {"pending": COUNT}),
    "campaign-end": obj({**_FRAME, "settled": COUNT}),
}


class JournalCorrupt(ValueError):
    """A non-trailing journal record failed to parse or verify, or a
    verified record is not one the engine writes."""


#: The canonical encoding: sorted keys, no whitespace (one encoder, built once).
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _checksum(payload: dict) -> str:
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()[:16]


def _stamp(stamped: dict) -> str:
    """Set ``stamped["check"]`` and return the record's journal line.

    The line is ``_canonical(stamped)`` with the checksum of the rest of
    the record in it, but each top-level member is encoded only once:
    the members are joined, sorted by key, once without ``check`` for
    the checksum and once with it for the line.
    """
    members = {key: f"{_canonical(key)}:{_canonical(value)}"
               for key, value in stamped.items()}
    unchecked = "{" + ",".join(members[key] for key in sorted(members)) + "}"
    stamped["check"] = hashlib.sha256(unchecked.encode()).hexdigest()[:16]
    members["check"] = f'"check":"{stamped["check"]}"'
    return "{" + ",".join(members[key] for key in sorted(members)) + "}"


class Journal:
    """Append-side handle: flushed writes, grouped fsyncs, cost accounting.

    ``fsync=False`` makes :meth:`commit` a no-op (tests and benchmarks
    that measure everything *but* durability); production keeps it on —
    a record the engine acted on must survive a power cut.
    """

    def __init__(self, path: str | Path, *, fsync: bool = True) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self.records_written = 0
        #: Cumulative seconds spent writing + syncing (BENCH-CAMPAIGN
        #: pins this under 5% of shard execution time).
        self.write_s = 0.0
        self._fh: IO[str] | None = None
        self._next_seq = 0
        self._unsynced = False

    def open(self, state: JournalState) -> "Journal":
        """Open for append after the records ``state`` replayed, so the
        file is read once.

        A torn tail is cut off first, so the next record starts on a
        line of its own.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._next_seq = state.records
        self._fh = open(self.path, "a", encoding="utf-8")
        # the last record and its newline
        intact = state.end + 1 if state.records else 0
        if self._fh.tell() != intact:
            self._fh.truncate(state.end)
            if state.records:
                self._fh.write("\n")
            self._unsynced = True
        return self

    def close(self) -> None:
        """Commit what is still unsynced, then close."""
        if self._fh is not None:
            self.commit()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Journal":
        return self.open(replay(self.path))

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def append(self, record: dict) -> dict:
        """Write and flush one record; returns it with seq + checksum.

        The record survives a kill of this process at once, and a power
        cut after the next :meth:`commit`.
        """
        if self._fh is None:
            raise ValueError("journal is not open")
        if record.get("type") not in RECORD_TYPES:
            raise ValueError(f"unknown journal record type "
                             f"{record.get('type')!r}")
        t0 = time.perf_counter()
        stamped = {**record, "seq": self._next_seq}
        self._fh.write(_stamp(stamped) + "\n")
        self._fh.flush()
        self._unsynced = True
        self._next_seq += 1
        self.records_written += 1
        self.write_s += time.perf_counter() - t0
        return stamped

    def commit(self) -> None:
        """Fsync every record appended since the last commit (one fsync)."""
        if self._fh is None or not self._unsynced:
            return
        if self.fsync:
            t0 = time.perf_counter()
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self.write_s += time.perf_counter() - t0
        self._unsynced = False


def read_records(path: str | Path) -> list[dict]:
    """Replay a journal file into verified records.

    Tolerates exactly one torn trailing record (the crash artifact);
    anything else that fails to parse or verify raises
    :class:`JournalCorrupt`.  A missing file is an empty journal.
    """
    return _read(path)[0]


def _read(path: str | Path) -> tuple[list[dict], int]:
    """The verified records, and the byte offset where the last one ends."""
    try:
        data = Path(path).read_bytes()
    except OSError:
        return [], 0
    lines = data.split(b"\n")
    if lines[-1] == b"":
        lines.pop()  # the newline that ends the last record
    records: list[dict] = []
    start = end = 0
    for index, line in enumerate(lines):
        trailing = index == len(lines) - 1
        record = _verify_line(line, index, trailing=trailing)
        if record is None:
            break  # torn tail dropped
        records.append(record)
        end = start + len(line)
        start = end + 1
    return records, end


def _verify_line(line: bytes, index: int, *, trailing: bool) -> dict | None:
    def bad(reason: str) -> dict | None:
        if trailing:
            return None
        raise JournalCorrupt(f"journal record {index}: {reason}")

    if not line.strip():
        return bad("blank line")
    try:
        record = json.loads(line)
    except ValueError:
        return bad("unparseable JSON")
    if not isinstance(record, dict):
        return bad("record must be an object")
    check = record.pop("check", None)
    if check != _checksum(record):
        return bad("checksum mismatch")
    if record.get("type") not in RECORD_TYPES:
        return bad(f"unknown record type {record.get('type')!r}")
    if record.get("seq") != index:
        return bad(f"sequence gap (expected {index}, "
                   f"found {record.get('seq')!r})")
    return record


@dataclass
class JournalState:
    """What a replayed journal proves about a campaign's progress."""

    #: The recorded campaign spec document (``campaign-start`` payload).
    spec: dict | None = None
    #: shard id -> terminal ``shard-done`` record.
    done: dict[str, dict] = field(default_factory=dict)
    #: shard id -> ``shard-quarantined`` record.
    quarantined: dict[str, dict] = field(default_factory=dict)
    #: shard id -> attempts started (``shard-start`` records seen).
    starts: dict[str, int] = field(default_factory=dict)
    #: graceful-interrupt checkpoints recorded.
    interrupts: int = 0
    #: a ``campaign-end`` record was written.
    ended: bool = False
    #: total records replayed, which is also the next sequence number.
    records: int = 0
    #: byte offset where the last intact record ends (a torn tail, if
    #: any, starts after it).
    end: int = 0

    @property
    def in_flight(self) -> list[str]:
        """Shards started but never finished (the crash landed on them)."""
        return sorted(shard_id for shard_id in self.starts
                      if shard_id not in self.done
                      and shard_id not in self.quarantined)

    def settled(self, shard_id: str) -> bool:
        """Is the shard terminal (done or quarantined) in the journal?"""
        return shard_id in self.done or shard_id in self.quarantined

    @property
    def settled_count(self) -> int:
        """How many of the recorded spec's shards are terminal."""
        shards = self.spec["shards"] if self.spec is not None else ()
        return sum(1 for shard in shards if self.settled(shard["id"]))

    @property
    def status(self) -> str:
        """``complete`` once ended, else ``interrupted`` after a graceful
        checkpoint, else ``incomplete`` (the process died mid-run)."""
        if self.ended:
            return "complete"
        return "interrupted" if self.interrupts else "incomplete"


def replay(path: str | Path) -> JournalState:
    """Fold a journal file into a :class:`JournalState`."""
    records, end = _read(path)
    state = JournalState(end=end)
    for record in records:
        state.records += 1
        kind = record["type"]
        try:
            _RECORDS[kind](record, f"journal record {record['seq']}")
        except SchemaError as exc:
            raise JournalCorrupt(str(exc)) from None
        if kind == "campaign-start":
            if state.spec is not None:
                raise JournalCorrupt("duplicate campaign-start record")
            state.spec = record["campaign"]
        elif kind == "shard-start":
            shard_id = record["shardId"]
            state.starts[shard_id] = state.starts.get(shard_id, 0) + 1
        elif kind == "shard-done":
            state.done[record["shardId"]] = record
        elif kind == "shard-quarantined":
            state.quarantined[record["shardId"]] = record
        elif kind == "interrupt":
            state.interrupts += 1
        elif kind == "campaign-end":
            state.ended = True
    if state.records and state.spec is None:
        raise JournalCorrupt("journal has records but no campaign-start")
    return state
