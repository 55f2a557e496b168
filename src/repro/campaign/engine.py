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
  uninterrupted one no matter where the crash landed;
* a graceful SIGINT/SIGTERM checkpoints an ``interrupt`` record, emits
  a partial report marked ``interrupted: true``, and prints the exact
  resume command.

Workers never wait on the engine: each busy worker holds one lookahead
shard while the queue holds more than ``jobs`` shards (see
:mod:`~repro.campaign.supervisor`).  With the default worker function,
each worker process of one run also keeps a memo of the static shards
(lint, flow, redteam) it has run, keyed by ``(tool, scenario)``: a
static result does not depend on the seed, so every later seed of that
cell reuses the result and its digest (see
:mod:`~repro.campaign.shard`).  The memo lives only in that run's
workers; the engine process never holds a result in it.

Self-chaos: :func:`plan_worker_faults` turns an ordinary
:class:`~repro.faults.plan.FaultPlan` into worker crash/hang
injections against the engine's *own* workers, using the same
deterministic per-target streams the simulated vehicles get — the
harness is subject to the paper's graceful-degradation discipline,
not just the systems it tests.
"""

from __future__ import annotations

import time
from contextlib import closing, nullcontext
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Callable

from repro.campaign.journal import Journal, JournalCorrupt, JournalState, replay
from repro.campaign.report import CampaignReport, ShardEntry, check_outcome
from repro.campaign.shard import execute_shard
from repro.campaign.spec import CampaignSpec
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
                 fsync: bool = True,
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
        self.fsync = fsync
        self.install_signal_handlers = install_signal_handlers
        #: What every worker runs on a shard dict (``Supervisor(execute)``);
        #: ``None`` runs :func:`execute_shard` with a fresh memo per run.
        self.execute = execute
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

    # -- journal bridging ----------------------------------------------------

    @staticmethod
    def _entry_from_done(shard: dict, record: dict) -> ShardEntry:
        return ShardEntry(
            shard=shard, status=record["status"], result=record["result"],
            digest=record["digest"], error=record["error"],
            attempts=record["attempts"], duration_s=record["durationS"])

    @staticmethod
    def _entry_from_quarantine(shard: dict, record: dict) -> ShardEntry:
        return ShardEntry(
            shard=shard, status="quarantined", result=None, digest="",
            error=record["error"], attempts=record["attempts"],
            duration_s=record["durationS"])

    def _outcome_record(self, outcome: ShardOutcome) -> dict:
        if outcome.status == "quarantined":
            return {"type": "shard-quarantined", "shardId": outcome.shard_id,
                    "error": outcome.error, "attempts": outcome.attempts,
                    "durationS": round(outcome.duration_s, 6),
                    "failures": list(outcome.failures)}
        payload = outcome.payload or {}
        return {"type": "shard-done", "shardId": outcome.shard_id,
                "status": outcome.status,
                "result": payload.get("result"),
                "digest": str(payload.get("digest", "")),
                "error": outcome.error, "attempts": outcome.attempts,
                "durationS": round(outcome.duration_s, 6)}

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
            journal = Journal(path, fsync=self.fsync).open(state)
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
        replayed = 0
        for shard in self.spec.shards:
            shard_id = shard.shard_id
            if shard_id in state.done:
                report.entries[shard_id] = self._entry_from_done(
                    shard.to_dict(), state.done[shard_id])
                replayed += 1
            elif shard_id in state.quarantined:
                report.entries[shard_id] = self._entry_from_quarantine(
                    shard.to_dict(), state.quarantined[shard_id])
                replayed += 1
        report.resumed_shards = replayed if resumed else 0
        if resumed:
            self._emit(EventKind.CAMPAIGN_RESUMED, self.campaign_id,
                       f"resumed with {replayed} settled shard(s) "
                       f"replayed from the journal", replayed=replayed)
            if OBS.enabled:
                OBS.count("campaign.resumes")
                OBS.count("campaign.shards.replayed", replayed)
        pending = [shard.to_dict() for shard in self.spec.shards
                   if shard.shard_id not in report.entries]
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

        def on_outcome(outcome: ShardOutcome) -> None:
            journal.append(self._outcome_record(outcome))
            shard = self.spec.shard(outcome.shard_id)
            payload = outcome.payload or {}
            report.entries[outcome.shard_id] = ShardEntry(
                shard=shard.to_dict(), status=outcome.status,
                result=payload.get("result"),
                digest=str(payload.get("digest", "")),
                error=outcome.error, attempts=outcome.attempts,
                duration_s=outcome.duration_s)
            self._emit(EventKind.SHARD_DONE, outcome.shard_id,
                       f"{outcome.status} after {outcome.attempts} "
                       f"attempt(s)", status=outcome.status,
                       attempts=outcome.attempts)
            if OBS.enabled:
                OBS.count(f"campaign.shards.{outcome.status}")
                OBS.observe("campaign.shard_s", outcome.duration_s)
                if outcome.attempts > 1:
                    OBS.count("campaign.shards.retried")

        # each worker process fills its own copy of the memo
        execute = self.execute if self.execute is not None \
            else partial(execute_shard, memo={})
        supervisor = Supervisor(
            execute, jobs=self.jobs,
            heartbeat_interval_s=self.heartbeat_interval_s,
            hang_timeout_s=self.hang_timeout_s,
            shard_timeout_s=self.shard_timeout_s,
            quarantine_after=self.quarantine_after,
            worker_faults=self.worker_faults,
            on_dispatch=on_dispatch, on_outcome=on_outcome,
            should_stop=lambda: self._stop_requested)
        with (stop_on_signals(self.request_stop)
              if self.install_signal_handlers else nullcontext()):
            _, interrupted = supervisor.run(pending)
        if interrupted:
            journal.append({"type": "interrupt",
                            "settled": len(report.entries),
                            "pending": len(self.spec)
                            - len(report.entries)})
            report.interrupted = True
        else:
            journal.append({"type": "campaign-end",
                            "settled": len(report.entries)})
