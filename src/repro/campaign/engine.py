"""The crash-safe, resumable campaign engine.

:class:`CampaignEngine` is the journal-driven scheduler that ties the
package together: it owns one write-ahead journal per campaign
(``<journal-root>/<campaign-id>/journal.jsonl``), dispatches pending
shards to the :class:`~repro.campaign.supervisor.Supervisor`, and
assembles the final :class:`~repro.campaign.report.CampaignReport`
purely from ``(spec, journaled outcome)`` pairs.

The crash-safety contract, end to end:

* every scheduling decision hits the journal *before* the engine acts
  on it (``shard-start`` before dispatch, ``shard-done`` /
  ``shard-quarantined`` the moment an outcome settles).  Each record is
  flushed as it is written, so a SIGKILL at any instant loses at most
  in-flight work; records are fsynced once per scheduler pass, before
  it dispatches, and at campaign end and on interrupt, so a power cut
  can cost only re-run shards, never a result the engine acted on;
* ``run(resume=True)`` replays the journal, trusts every settled
  record (including quarantines — a poison shard must not get a fresh
  chance just because the engine restarted), and re-executes only the
  rest;
* the final report is a pure function of the spec and the settled
  outcomes, so a resumed campaign's report is **byte-identical** to an
  uninterrupted one no matter where the crash landed.  Every report
  entry is built by one function from the journal record that settled
  its shard: the stamped record :meth:`~repro.campaign.journal.Journal.append`
  returns for a live outcome, the replayed ``shard-done`` or
  ``shard-quarantined`` record on resume, so a live entry and its
  resumed copy agree field for field (``duration_s`` included, at the
  journal's six decimals);
* a graceful SIGINT/SIGTERM checkpoints an ``interrupt`` record, emits
  a partial report marked ``interrupted: true``, and prints the exact
  resume command.

Workers never wait on the engine: each busy worker holds one lookahead
shard while the queue holds more than ``jobs`` shards (see
:mod:`~repro.campaign.supervisor`).  Outcomes come back one way, through
the supervisor's ``on_outcome`` callback.

The engine keeps the memo of static shards.  A static result (lint,
flow, redteam under the default worker function,
:func:`~repro.campaign.shard.execute_shard`) reads only the scenario,
so of each static ``(tool, scenario)`` cell only the first pending
shard goes to the supervisor.  When it settles ``ok``, the engine
settles every other shard of the cell itself, from that result and its
digest: one ``shard-done`` each, with ``attempts`` 1 and the time the
engine took to settle it, but no ``shard-start`` and no dispatch.  If
the first shard ends ``error``, ``timeout`` or ``quarantined``, the rest
of its cell runs on the workers in one further supervisor run.  The memo
lives for one :meth:`CampaignEngine.run` and is seeded from the ``ok``
``shard-done`` records already in the journal, so a resume settles a
cell's remaining shards the same way; a crash before a cell's first
shard settles leaves the rest of the cell pending, and the resume sends
its first pending shard.  A custom ``execute=`` and plan-driven shards
are never settled from the memo.

Each result is decoded once, from the canonical JSON text its worker
built (every worker function returns through
:func:`~repro.campaign.shard.payload`), and the same text is spliced
into the journal record, so the engine process encodes no result
document.

Self-chaos: :func:`plan_worker_faults` turns an ordinary
:class:`~repro.faults.plan.FaultPlan` into worker crash/hang
injections against the engine's *own* workers, using the same
deterministic per-target streams the simulated vehicles get — the
harness is subject to the paper's graceful-degradation discipline,
not just the systems it tests.
"""

from __future__ import annotations

import json
import time
from contextlib import closing, nullcontext
from dataclasses import replace
from pathlib import Path
from typing import Callable

from repro.campaign.journal import Journal, JournalCorrupt, JournalState, replay
from repro.campaign.report import CampaignReport, ShardEntry, check_outcome
from repro.campaign.shard import canonical_json, execute_shard
from repro.campaign.spec import PLAN_TOOLS, CampaignSpec, CampaignTool
from repro.campaign.supervisor import (
    DEFAULT_HANG_TIMEOUT_S,
    DEFAULT_HEARTBEAT_INTERVAL_S,
    DEFAULT_QUARANTINE_AFTER,
    DEFAULT_SHARD_TIMEOUT_S,
    ShardOutcome,
    Supervisor,
    stop_on_signals,
)
from repro.core.layers import Layer
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan
from repro.obs.events import EventKind, EventLog
from repro.obs.runtime import OBS

__all__ = ["CampaignEngine", "CampaignError", "default_journal_root",
           "load_campaign", "list_campaigns", "plan_worker_faults"]


class CampaignError(ValueError):
    """A campaign cannot run as requested (bad state, spec mismatch)."""


#: The tools whose result reads only the scenario: the memo's cells.
STATIC_TOOLS = frozenset(tool.value for tool in CampaignTool
                         if tool not in PLAN_TOOLS)


def _decode(payload: dict | None) -> tuple[dict | None, str | None]:
    """A worker payload's result document and its canonical JSON text.

    The document is loaded from that text, so its keys are in canonical
    order.
    """
    text = (payload or {}).get("result")
    return (None, None) if text is None else (json.loads(text), text)


def _entry(shard: dict, record: dict) -> ShardEntry:
    """A shard's report entry, from the ``shard-done`` or
    ``shard-quarantined`` journal record that settled it (the latter
    carries no status, result or digest)."""
    return ShardEntry(
        shard=shard, status=record.get("status", "quarantined"),
        result=record.get("result"), digest=record.get("digest", ""),
        error=record["error"], attempts=record["attempts"],
        duration_s=record["durationS"])


def default_journal_root() -> Path:
    """The repo-local journal root (``.repro-cache/campaigns``)."""
    from repro.experiments import benchmarks_dir

    return benchmarks_dir().parent / ".repro-cache" / "campaigns"


def journal_path(campaign_id: str, journal_root: str | Path | None) -> Path:
    root = Path(journal_root) if journal_root is not None \
        else default_journal_root()
    return root / campaign_id / "journal.jsonl"


def _replay_campaign(path: Path) -> tuple[JournalState, CampaignSpec | None]:
    """Replay a journal and rebuild its spec, or raise :class:`JournalCorrupt`.

    Beyond the record shapes :func:`replay` checks, every ``shard-done``
    must be ``ok`` exactly when it carries a result with a matching
    digest (the report's rule), and the recorded spec must rebuild.
    The digests cost a hash per settled shard, so this runs where the
    CLI names a campaign (:func:`load_campaign`, :func:`list_campaigns`),
    not on every :meth:`CampaignEngine.run`.
    """
    state = replay(path)
    try:
        for shard_id, record in state.done.items():
            check_outcome(record, f"shard-done {shard_id}")
        spec = CampaignSpec.from_dict(state.spec) \
            if state.spec is not None else None
    except ValueError as exc:
        raise JournalCorrupt(str(exc)) from None
    return state, spec


def load_campaign(campaign_id: str, journal_root: str | Path | None = None,
                  ) -> tuple[CampaignSpec, JournalState]:
    """Rebuild a campaign's spec from its journal (the resume entry), with
    the replayed state it came from, so a caller never replays twice."""
    path = journal_path(campaign_id, journal_root)
    state, spec = _replay_campaign(path)
    if spec is None:
        raise CampaignError(f"no journal for campaign {campaign_id!r} "
                            f"under {path.parent.parent}")
    return spec, state


def list_campaigns(journal_root: str | Path | None = None) -> list[dict]:
    """Summarise every journaled campaign (sorted by id)."""
    root = Path(journal_root) if journal_root is not None \
        else default_journal_root()
    summaries: list[dict] = []
    if not root.is_dir():
        return summaries
    for entry in sorted(root.iterdir()):
        path = entry / "journal.jsonl"
        if not path.is_file():
            continue
        try:
            state, spec = _replay_campaign(path)
        except JournalCorrupt:
            summaries.append({"id": entry.name, "status": "corrupt",
                              "shards": 0, "settled": 0})
            continue
        if spec is None:
            continue
        summaries.append({"id": entry.name, "status": state.status,
                          "shards": len(spec), "settled": state.settled_count})
    return summaries


def plan_worker_faults(spec: CampaignSpec, plan: FaultPlan, *,
                       base_seed: int | None = None,
                       max_attempts: int = DEFAULT_QUARANTINE_AFTER,
                       ) -> dict[str, dict[int, str]]:
    """Derive self-chaos worker faults for a campaign from a fault plan.

    Consults the plan's ``runner-worker-crash`` / ``runner-worker-hang``
    specs once per ``(shard, attempt)`` opportunity — the shard id is
    the fault target and the attempt index the virtual instant.  The
    plan's worker-fault specs are re-targeted onto every shard id first
    (built-in plans aim them at the generic ``sweep-worker`` target), so
    each shard draws from its own labelled stream.  Determinism of the
    injector streams makes the derived fault map a pure function of
    ``(spec, plan, base_seed)``.
    """
    worker_kinds = (FaultKind.RUNNER_WORKER_CRASH,
                    FaultKind.RUNNER_WORKER_HANG)
    retargeted = tuple(
        replace(fault_spec, target=shard.shard_id)
        for fault_spec in plan.specs if fault_spec.kind in worker_kinds
        for shard in spec.shards)
    if not retargeted:
        return {}
    injector = FaultInjector(FaultPlan(name=plan.name, specs=retargeted),
                             base_seed=base_seed)
    faults: dict[str, dict[int, str]] = {}
    for shard in spec.shards:
        per_attempt: dict[int, str] = {}
        for attempt in range(max_attempts):
            t = float(attempt)
            if injector.fires(FaultKind.RUNNER_WORKER_CRASH,
                              shard.shard_id, t):
                per_attempt[attempt] = FaultKind.RUNNER_WORKER_CRASH.value
            elif injector.fires(FaultKind.RUNNER_WORKER_HANG,
                                shard.shard_id, t):
                per_attempt[attempt] = FaultKind.RUNNER_WORKER_HANG.value
        if per_attempt:
            faults[shard.shard_id] = per_attempt
    return faults


class CampaignEngine:
    """Run (or resume) one campaign against its write-ahead journal."""

    def __init__(self, spec: CampaignSpec, *, jobs: int = 1,
                 journal_root: str | Path | None = None,
                 shard_timeout_s: float = DEFAULT_SHARD_TIMEOUT_S,
                 hang_timeout_s: float = DEFAULT_HANG_TIMEOUT_S,
                 heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
                 quarantine_after: int = DEFAULT_QUARANTINE_AFTER,
                 worker_faults: dict[str, dict[int, str]] | None = None,
                 install_signal_handlers: bool = False,
                 execute: Callable[[dict], dict] | None = None) -> None:
        self.spec = spec
        self.jobs = jobs
        self.journal_root = journal_root
        self.shard_timeout_s = shard_timeout_s
        self.hang_timeout_s = hang_timeout_s
        self.heartbeat_interval_s = heartbeat_interval_s
        self.quarantine_after = quarantine_after
        self.worker_faults = worker_faults or {}
        self.install_signal_handlers = install_signal_handlers
        #: What every worker runs on a shard dict (``Supervisor(execute)``),
        #: a payload whose ``result`` is canonical JSON text or ``None``
        #: (see :func:`~repro.campaign.shard.payload`); ``None`` runs
        #: :func:`execute_shard`, whose static cells the engine memoizes.
        self.execute = execute if execute is not None else execute_shard
        self.events = EventLog()
        self._stop_requested = False
        self._t0 = 0.0

    # -- public knobs --------------------------------------------------------

    @property
    def campaign_id(self) -> str:
        return self.spec.campaign_id

    @property
    def journal_file(self) -> Path:
        return journal_path(self.campaign_id, self.journal_root)

    @property
    def resume_command(self) -> str:
        return f"python -m repro campaign resume {self.campaign_id}"

    def request_stop(self) -> None:
        """Ask the engine to checkpoint and stop at the next boundary."""
        self._stop_requested = True

    # -- observability -------------------------------------------------------

    def _emit(self, kind: EventKind, shard_id: str, message: str,
              **fields: str | int | float | bool) -> None:
        t = time.perf_counter() - self._t0
        self.events.emit(kind, Layer.SYSTEM_OF_SYSTEMS, shard_id, message,
                         t=t, **fields)
        if OBS.enabled:
            OBS.emit(kind, Layer.SYSTEM_OF_SYSTEMS, shard_id, message,
                     t=t, **fields)

    # -- the static-shard memo ----------------------------------------------

    def _cell(self, shard_id: str) -> tuple[str, str] | None:
        """The shard's static ``(tool, scenario)`` memo cell, if it has one."""
        if self.execute is not execute_shard:
            return None
        shard = self.spec.shard(shard_id)
        return (shard.tool_name, shard.scenario) \
            if shard.tool_name in STATIC_TOOLS else None

    # -- the run -------------------------------------------------------------

    def run(self, *, resume: bool = False,
            state: JournalState | None = None) -> CampaignReport:
        """Execute the campaign; returns the (possibly partial) report.

        Fresh runs refuse to clobber an existing journal — resuming is
        an explicit decision (``resume=True``), not a side effect of
        retyping the run command after a crash.  ``state`` is the
        journal as the caller already replayed it (:func:`load_campaign`);
        without it the journal is replayed here.
        """
        self._t0 = time.perf_counter()
        self._stop_requested = False
        path = self.journal_file
        if state is None:
            state = replay(path)
        if state.records and not resume:
            raise CampaignError(
                f"campaign {self.campaign_id} already has a journal; "
                f"resume it with: {self.resume_command}")
        if resume and state.spec is not None:
            recorded = CampaignSpec.from_dict(state.spec)
            if recorded.to_dict() != self.spec.to_dict():
                raise CampaignError(
                    f"journal for {self.campaign_id} records a different "
                    f"shard matrix; refusing to resume across spec edits")
        report = CampaignReport(spec=self.spec)
        with OBS.span("campaign.run", campaign=self.campaign_id,
                      jobs=self.jobs, shards=len(self.spec),
                      resume=resume):
            journal = Journal(path).open(state)
            # closing commits the campaign-end or interrupt record
            with closing(journal):
                self._run_journaled(journal, state, report,
                                    resumed=resume and state.records > 0)
            report.journal_write_s = journal.write_s
            report.journal_records = journal.records_written
            if OBS.enabled:
                OBS.count("campaign.runs")
                if report.interrupted:
                    OBS.count("campaign.interrupted")
        report.wall_s = time.perf_counter() - self._t0
        return report

    def _run_journaled(self, journal: Journal, state: JournalState,
                       report: CampaignReport, *, resumed: bool) -> None:
        if state.spec is None:
            journal.append({"type": "campaign-start",
                            "campaign": self.spec.to_dict()})
        # static cell -> (result, its canonical text or None, digest)
        memo: dict[tuple[str, str], tuple[dict, str | None, str]] = {}
        replayed = 0
        for shard in self.spec.shards:
            shard_id = shard.shard_id
            record = state.done.get(shard_id) or state.quarantined.get(shard_id)
            if record is None:
                continue
            report.entries[shard_id] = _entry(shard.to_dict(), record)
            replayed += 1
            cell = self._cell(shard_id)
            if cell is not None and record.get("status") == "ok":
                memo.setdefault(cell, (record["result"], None, record["digest"]))
        report.resumed_shards = replayed if resumed else 0
        if resumed:
            self._emit(EventKind.CAMPAIGN_RESUMED, self.campaign_id,
                       f"resumed with {replayed} settled shard(s) "
                       f"replayed from the journal", replayed=replayed)
            if OBS.enabled:
                OBS.count("campaign.resumes")
                OBS.count("campaign.shards.replayed", replayed)

        def settle(outcome: ShardOutcome, result: dict | None,
                   text: str | None, digest: str) -> None:
            record = {"shardId": outcome.shard_id, "error": outcome.error,
                      "attempts": outcome.attempts,
                      "durationS": round(outcome.duration_s, 6)}
            if outcome.status == "quarantined":
                record.update(type="shard-quarantined",
                              failures=list(outcome.failures))
            else:
                record.update(type="shard-done", status=outcome.status,
                              result=result, digest=digest)
            report.entries[outcome.shard_id] = _entry(
                self.spec.shard(outcome.shard_id).to_dict(),
                journal.append(record, result_json=text))
            self._emit(EventKind.SHARD_DONE, outcome.shard_id,
                       f"{outcome.status} after {outcome.attempts} "
                       f"attempt(s)", status=outcome.status,
                       attempts=outcome.attempts)
            if OBS.enabled:
                OBS.count(f"campaign.shards.{outcome.status}")
                OBS.observe("campaign.shard_s", outcome.duration_s)
                if outcome.attempts > 1:
                    OBS.count("campaign.shards.retried")

        def settle_from_memo(shard_id: str, cell: tuple[str, str]) -> None:
            t0 = time.perf_counter()
            result, text, digest = memo[cell]
            if text is None:  # seeded from the journal: encode it once
                text = canonical_json(result)
                memo[cell] = (result, text, digest)
            settle(ShardOutcome(shard_id=shard_id, status="ok",
                                duration_s=time.perf_counter() - t0),
                   result, text, digest)

        # the shards each static cell holds back behind its first one
        held: dict[tuple[str, str], list[str]] = {}
        pending: list[dict] = []
        for shard in self.spec.shards:
            shard_id = shard.shard_id
            if shard_id in report.entries:
                continue
            cell = self._cell(shard_id)
            if cell in memo:
                settle_from_memo(shard_id, cell)
            elif cell in held:
                held[cell].append(shard_id)
            else:
                if cell is not None:
                    held[cell] = []
                pending.append(shard.to_dict())
        if not pending:
            if not state.ended:
                journal.append({"type": "campaign-end",
                                "settled": len(report.entries)})
            return

        def on_dispatch(starts: list[tuple[str, int, float]]) -> None:
            for shard_id, attempt, budget_s in starts:
                journal.append({"type": "shard-start", "shardId": shard_id,
                                "attempt": attempt})
                self._emit(EventKind.SHARD_START, shard_id,
                           f"attempt {attempt}", attempt=attempt,
                           budgetS=round(budget_s, 3))
                if OBS.enabled:
                    OBS.count("campaign.shards.scheduled")
            # one fsync makes these starts, and every outcome settled
            # since the last pass, durable before anything is sent
            journal.commit()

        # the rest of every cell whose first shard did not end ok
        released: list[dict] = []

        def on_outcome(outcome: ShardOutcome) -> None:
            result, text = _decode(outcome.payload)
            digest = str((outcome.payload or {}).get("digest", ""))
            settle(outcome, result, text, digest)
            cell = self._cell(outcome.shard_id)
            waiting = held.pop(cell, None)
            if not waiting:
                return
            if outcome.status == "ok":
                memo[cell] = (result, text, digest)
                for shard_id in waiting:
                    settle_from_memo(shard_id, cell)
            else:
                released.extend(self.spec.shard(shard_id).to_dict()
                                for shard_id in waiting)

        supervisor = Supervisor(
            self.execute, jobs=self.jobs,
            heartbeat_interval_s=self.heartbeat_interval_s,
            hang_timeout_s=self.hang_timeout_s,
            shard_timeout_s=self.shard_timeout_s,
            quarantine_after=self.quarantine_after,
            worker_faults=self.worker_faults,
            on_dispatch=on_dispatch, on_outcome=on_outcome,
            should_stop=lambda: self._stop_requested)
        with (stop_on_signals(self.request_stop)
              if self.install_signal_handlers else nullcontext()):
            interrupted = supervisor.run(pending)
            if released and not interrupted:
                interrupted = supervisor.run(released)
        if interrupted:
            journal.append({"type": "interrupt",
                            "settled": len(report.entries),
                            "pending": len(self.spec)
                            - len(report.entries)})
            report.interrupted = True
        else:
            journal.append({"type": "campaign-end",
                            "settled": len(report.entries)})
