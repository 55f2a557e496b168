"""Supervised worker pool: heartbeats, hang detection, poison quarantine.

The repo's one worker pool, driven by the campaign engine.  Its caller
cannot trust its workers: a shard can crash its process outright, wedge
it without exiting (the failure mode a timeout alone never
distinguishes from "slow"), or poison every worker that touches it.
This supervisor owns that distrust so the engine stays a simple
scheduler.  A shard is any dict with an ``"id"``; the caller passes the
function its workers run on it —
:func:`~repro.campaign.shard.execute_shard` for the tool fleet, an
:func:`~repro.campaign.experiment.experiment_executor` for the paper
experiments:

* every worker runs a **heartbeat thread** beating over its pipe at a
  fixed interval; a worker whose beats stop for ``hang_timeout_s`` is
  declared *hung* — killed and replaced even though its process is
  still technically alive and its timeout has not expired;
* a worker **death** (exit, signal, torn pipe) is a *crash*; crashes
  and hangs requeue the shard on a fresh worker with only the
  **remaining** time budget (a shard that burned most of its budget
  before killing its worker must not win a fresh full allowance);
* a shard that kills ``quarantine_after`` workers in a row is **poison**
  and is quarantined — surfaced as a terminal outcome, never silently
  dropped and never retried again (not even by a resumed campaign);
* a shard that exhausts its budget is a *timeout* — also terminal; the
  per-shard budget is the only timeout, so each worker leads its own
  process group and a kill takes any subprocess it started with it
  (workers are not daemonic, so a shard may even run a pool of its own);
* a stop request (``should_stop``, or a ``KeyboardInterrupt`` raised
  while the pool runs) ends the run early with only settled outcomes;
  :func:`stop_on_signals` turns SIGINT/SIGTERM into such a request.

Workers never wait on the scheduler between shards.  While the queue
holds more than ``jobs`` shards, each busy worker is sent one
*lookahead* shard, which sits in its pipe and starts the moment the
current one finishes; the last ``jobs`` shards of a run are never held
behind a busy worker.  Each scheduler pass first
decides every shard it will send, hands them all to ``on_dispatch`` in
one call (the engine journals them and fsyncs once there), and only
then sends.  A lookahead is not an attempt: when its worker crashes,
hangs or times out, or a send finds the worker already dead, the shard
goes back to the front of the queue without being charged.

Worker deaths are infrastructure verdicts; failures the worker function
reports come back as ordinary payloads and are never retried (they are
deterministic, so a retry would only burn budget).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait as connection_wait
from typing import Callable, Iterator

__all__ = ["Supervisor", "ShardOutcome", "stop_on_signals", "WORKER_CRASH_EXIT",
           "DEFAULT_HEARTBEAT_INTERVAL_S", "DEFAULT_HANG_TIMEOUT_S",
           "DEFAULT_SHARD_TIMEOUT_S", "DEFAULT_QUARANTINE_AFTER",
           "FAULT_WORKER_CRASH", "FAULT_WORKER_HANG"]

DEFAULT_HEARTBEAT_INTERVAL_S = 0.05
DEFAULT_HANG_TIMEOUT_S = 2.0
DEFAULT_SHARD_TIMEOUT_S = 120.0
DEFAULT_QUARANTINE_AFTER = 3

#: Exit code a self-chaos crash fault dies with (distinctive in ps).
WORKER_CRASH_EXIT = 73

#: Minimum leftover budget (seconds) worth restarting a shard with.
RESTART_BUDGET_FLOOR_S = 0.05

#: Self-chaos fault vocabulary understood by the worker loop.  The
#: values reuse the :mod:`repro.faults` worker-fault kinds so chaos
#: plans can drive the engine's own workers.
FAULT_WORKER_CRASH = "runner-worker-crash"
FAULT_WORKER_HANG = "runner-worker-hang"

#: How long a hang fault sleeps — far past any hang timeout; the
#: supervisor kills the worker long before this expires.
_HANG_SLEEP_S = 3600.0


@contextmanager
def stop_on_signals(request_stop: Callable[[], None]) -> Iterator[None]:
    """Turn SIGINT/SIGTERM into ``request_stop()`` while the block runs."""
    def handler(signum: int, frame: object) -> None:
        request_stop()

    previous = {signum: signal.signal(signum, handler)
                for signum in (signal.SIGINT, signal.SIGTERM)}
    try:
        yield
    finally:
        for signum, old in previous.items():
            signal.signal(signum, old)


def _worker_main(parent_conn: Connection, conn: Connection,
                 execute: Callable[[dict], dict]) -> None:
    """The worker loop: receive a shard envelope, beat, execute, reply.

    Runs in a child process that leads its own process group, so killing
    the group also kills whatever ``execute`` started.  Closes the
    inherited parent-side pipe end immediately so that if the scheduling
    process dies (even SIGKILL), this worker's blocking ``recv`` sees EOF
    and exits instead of leaking as an orphan.
    """
    parent_conn.close()
    os.setpgid(0, 0)
    # a forked worker inherits the parent's stop handler; drop it
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    send_lock = threading.Lock()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if not isinstance(message, dict) or message.get("type") != "run":
            return
        fault = message.get("fault")
        if fault == FAULT_WORKER_CRASH:
            os._exit(WORKER_CRASH_EXIT)
        if fault == FAULT_WORKER_HANG:
            # Wedge without exiting: no heartbeats, no result, process
            # alive — exactly what hang detection must catch.
            time.sleep(_HANG_SLEEP_S)
            return
        stop = threading.Event()
        interval = float(message["heartbeatIntervalS"])

        def beat() -> None:
            while not stop.wait(interval):
                try:
                    with send_lock:
                        conn.send({"type": "beat"})
                except OSError:
                    return

        beater = threading.Thread(target=beat, daemon=True)
        beater.start()
        payload = execute(message["shard"])
        stop.set()
        beater.join()
        try:
            with send_lock:
                conn.send({"type": "result", "payload": payload})
        except OSError:
            return


@dataclass
class ShardOutcome:
    """The supervisor's terminal verdict for one shard."""

    shard_id: str
    status: str                    # ok | error | timeout | quarantined
    payload: dict | None = None    # worker payload for ok/error
    attempts: int = 1
    duration_s: float = 0.0
    error: str = ""
    failures: list[str] = field(default_factory=list)


@dataclass
class _WorkItem:
    shard_id: str
    shard: dict
    budget_s: float
    attempt: int = 0
    failures: list[str] = field(default_factory=list)


class _Worker:
    """One supervised child process and its scheduling state: the shard
    it runs (``item``) and the lookahead waiting in its pipe (``queued``)."""

    def __init__(self, context: multiprocessing.context.BaseContext,
                 execute: Callable[[dict], dict]) -> None:
        self.conn: Connection
        child_conn: Connection
        self.conn, child_conn = context.Pipe(duplex=True)
        self.process = context.Process(
            target=_worker_main, args=(self.conn, child_conn, execute),
            daemon=False)
        self.process.start()
        child_conn.close()
        self.item: _WorkItem | None = None
        self.queued: _WorkItem | None = None
        self.started_at = 0.0
        self.last_beat = 0.0

    @property
    def busy(self) -> bool:
        return self.item is not None

    def start(self, item: _WorkItem | None) -> None:
        """``item`` is the shard the worker runs from now (``None``: idle)."""
        self.item = item
        self.started_at = self.last_beat = time.monotonic()

    def send(self, item: _WorkItem, *, fault: str | None,
             heartbeat_interval_s: float) -> None:
        self.conn.send({"type": "run", "shard": item.shard, "fault": fault,
                        "heartbeatIntervalS": heartbeat_interval_s})

    def take_back(self, item: _WorkItem) -> None:
        """Forget a shard whose send failed."""
        if item is self.queued:
            self.queued = None
        else:
            self.item = None

    def kill(self) -> None:
        """Kill the worker's process group: the worker and its children."""
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:  # no group yet: it started nothing
            self.process.kill()
        self.process.join(timeout=2.0)
        self.conn.close()

    def stop(self) -> None:
        """Graceful shutdown for an idle worker."""
        try:
            self.conn.send({"type": "stop"})
        except OSError:
            pass
        self.process.join(timeout=2.0)
        if self.process.is_alive():
            self.kill()
        else:
            self.conn.close()


class Supervisor:
    """Schedule shards across supervised workers; never trust a worker.

    ``execute`` is the function every worker runs on a shard dict; it
    must be a module-level function returning a dict payload with a
    ``status`` (and optionally ``durationS``/``error``).
    ``worker_faults`` maps ``shard_id -> {attempt_index: fault_kind}``
    (:data:`FAULT_WORKER_CRASH` / :data:`FAULT_WORKER_HANG`) and is the
    self-chaos injection point: the fault ships to the worker with the
    envelope and fires *inside* it, so the supervision machinery under
    test is exactly the machinery in production.
    ``on_dispatch`` gets the ``(shard_id, attempt, budget_s)`` of every
    shard a scheduler pass is about to send, once per pass, before any
    of them is sent.
    """

    def __init__(self, execute: Callable[[dict], dict], *, jobs: int = 1,
                 heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
                 hang_timeout_s: float = DEFAULT_HANG_TIMEOUT_S,
                 shard_timeout_s: float = DEFAULT_SHARD_TIMEOUT_S,
                 quarantine_after: int = DEFAULT_QUARANTINE_AFTER,
                 worker_faults: dict[str, dict[int, str]] | None = None,
                 on_dispatch: Callable[[list[tuple[str, int, float]]], None]
                 | None = None,
                 on_outcome: Callable[[ShardOutcome], None] | None = None,
                 should_stop: Callable[[], bool] | None = None) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if heartbeat_interval_s <= 0 or hang_timeout_s <= 0:
            raise ValueError("heartbeat/hang intervals must be positive")
        if hang_timeout_s <= heartbeat_interval_s:
            raise ValueError("hang_timeout_s must exceed the heartbeat "
                             "interval or every shard looks hung")
        if quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")
        self.execute = execute
        self.jobs = jobs
        self.heartbeat_interval_s = heartbeat_interval_s
        self.hang_timeout_s = hang_timeout_s
        self.shard_timeout_s = shard_timeout_s
        self.quarantine_after = quarantine_after
        self.worker_faults = worker_faults or {}
        self.on_dispatch = on_dispatch
        self.on_outcome = on_outcome
        self.should_stop = should_stop

    # -- helpers -------------------------------------------------------------

    def _fault_for(self, item: _WorkItem) -> str | None:
        return self.worker_faults.get(item.shard_id, {}).get(item.attempt)

    def _settle(self, outcomes: dict[str, ShardOutcome],
                outcome: ShardOutcome) -> None:
        outcomes[outcome.shard_id] = outcome
        if self.on_outcome is not None:
            self.on_outcome(outcome)

    def _stopping(self) -> bool:
        return self.should_stop is not None and self.should_stop()

    @staticmethod
    def _retire(worker: _Worker, queue: deque[_WorkItem]) -> tuple[_WorkItem, float]:
        """Kill a busy worker; returns its shard and the time it ran.

        The worker's lookahead never started, so it goes back to the
        front of the queue uncharged.
        """
        item = worker.item
        assert item is not None
        consumed = time.monotonic() - worker.started_at
        worker.kill()
        if worker.queued is not None:
            queue.appendleft(worker.queued)
        worker.item = worker.queued = None
        return item, consumed

    def _worker_failed(self, worker: _Worker, reason: str,
                       queue: deque[_WorkItem],
                       outcomes: dict[str, ShardOutcome]) -> None:
        """A busy worker died or hung: kill, account, requeue or retire."""
        item, consumed = self._retire(worker, queue)
        item.failures.append(reason)
        item.attempt += 1
        remaining = item.budget_s - consumed
        if len(item.failures) >= self.quarantine_after:
            self._settle(outcomes, ShardOutcome(
                shard_id=item.shard_id, status="quarantined",
                attempts=item.attempt, duration_s=consumed,
                error=(f"quarantined after {len(item.failures)} worker "
                       f"failure(s): {item.failures[-1]}"),
                failures=list(item.failures)))
        elif remaining <= RESTART_BUDGET_FLOOR_S:
            self._settle(outcomes, ShardOutcome(
                shard_id=item.shard_id, status="timeout",
                attempts=item.attempt, duration_s=consumed,
                error=f"budget exhausted after {reason}",
                failures=list(item.failures)))
        else:
            item.budget_s = remaining
            queue.append(item)

    # -- the scheduling loop -------------------------------------------------

    def run(self, shards: list[dict]) -> tuple[dict[str, ShardOutcome], bool]:
        """Execute every shard dict; returns ``(outcomes, interrupted)``.

        ``outcomes`` maps shard id to its terminal verdict; on interrupt
        the map holds only the shards that settled before the stop
        request — in-flight and queued shards are simply absent (for a
        campaign, their journal trail is a ``shard-start`` without a
        ``shard-done``, which is exactly what the resume path
        re-executes).
        """
        queue: deque[_WorkItem] = deque(
            _WorkItem(shard_id=str(shard["id"]), shard=dict(shard),
                      budget_s=self.shard_timeout_s)
            for shard in shards)
        outcomes: dict[str, ShardOutcome] = {}
        if not queue:
            return outcomes, False
        context = multiprocessing.get_context()
        workers: list[_Worker] = []
        interrupted = False
        try:
            workers.extend(_Worker(context, self.execute)
                           for _ in range(min(self.jobs, len(queue))))
            while queue or any(w.busy for w in workers):
                if self._stopping():
                    interrupted = True
                    break
                self._dispatch(workers, queue)
                busy = [w for w in workers if w.busy]
                if not busy:
                    continue
                ready = connection_wait(
                    [w.conn for w in busy],
                    timeout=min(self.heartbeat_interval_s, 0.05))
                for worker in busy:
                    if worker.conn in ready:
                        self._drain(worker, queue, outcomes)
                now = time.monotonic()
                for worker in workers:
                    if worker.busy:
                        self._check(worker, now, queue, outcomes)
                # replace killed workers while work remains
                workers = [w for w in workers
                           if w.busy or w.process.is_alive()]
                needed = min(self.jobs,
                             len(queue) + sum(1 for w in workers if w.busy))
                while len(workers) < needed:
                    workers.append(_Worker(context, self.execute))
        except KeyboardInterrupt:
            interrupted = True
        finally:
            for worker in workers:
                if worker.busy or not worker.process.is_alive():
                    worker.kill()
                else:
                    worker.stop()
        return outcomes, interrupted

    def _check(self, worker: _Worker, now: float, queue: deque[_WorkItem],
               outcomes: dict[str, ShardOutcome]) -> None:
        """Settle a busy worker that died, overran its shard's budget or
        stopped beating."""
        item = worker.item
        assert item is not None
        if not worker.process.is_alive():
            # a result sent just before the death settles its shard; the
            # death is charged to the lookahead that ran next
            self._drain(worker, queue, outcomes)
            if worker.busy:
                code = worker.process.exitcode
                self._worker_failed(worker, f"worker crashed (exit {code})",
                                    queue, outcomes)
        elif now - worker.started_at > item.budget_s:
            item, consumed = self._retire(worker, queue)
            self._settle(outcomes, ShardOutcome(
                shard_id=item.shard_id, status="timeout",
                attempts=item.attempt + 1, duration_s=consumed,
                error=f"timed out after {item.budget_s:g}s budget",
                failures=list(item.failures)))
        elif now - worker.last_beat > self.hang_timeout_s:
            self._worker_failed(worker, "worker hung (heartbeats stopped)",
                                queue, outcomes)

    def _dispatch(self, workers: list[_Worker], queue: deque[_WorkItem]) -> None:
        """Give each idle worker a shard and, while the queue holds more
        than ``jobs`` shards, each busy one a lookahead.

        Every chosen shard goes to ``on_dispatch`` before any is sent.
        A send that finds its worker dead puts the shard back at the
        front of the queue, uncharged; :meth:`_check` then buries the
        worker.
        """
        sends: list[tuple[_Worker, _WorkItem]] = []
        for worker in workers:
            if not worker.busy and queue:
                item = queue.popleft()
                worker.start(item)
                sends.append((worker, item))
            if worker.busy and worker.queued is None and len(queue) > self.jobs:
                worker.queued = queue.popleft()
                sends.append((worker, worker.queued))
        if not sends:
            return
        if self.on_dispatch is not None:
            self.on_dispatch([(item.shard_id, item.attempt, item.budget_s)
                              for _, item in sends])
        dead: list[_Worker] = []
        unsent: list[_WorkItem] = []
        for worker, item in sends:
            # once a send fails, nothing more goes to that worker: a later
            # lookahead must never reach a worker whose shard came back
            if worker not in dead:
                try:
                    worker.send(item, fault=self._fault_for(item),
                                heartbeat_interval_s=self.heartbeat_interval_s)
                    continue
                except OSError:
                    dead.append(worker)
            worker.take_back(item)
            unsent.append(item)
        queue.extendleft(reversed(unsent))

    def _drain(self, worker: _Worker, queue: deque[_WorkItem],
               outcomes: dict[str, ShardOutcome]) -> None:
        """Consume every pending message from one worker's pipe.

        A result settles the worker's shard and starts its lookahead.
        After a stop request, the rest is left unread.
        """
        while True:
            try:
                if not worker.conn.poll(0):
                    return
                message = worker.conn.recv()
            except (EOFError, OSError):
                # death is handled by the liveness check; the pipe EOF
                # alone must not double-account the failure
                return
            if message.get("type") == "beat":
                worker.last_beat = time.monotonic()
            elif message.get("type") == "result" and worker.item is not None:
                item = worker.item
                worker.start(worker.queued)
                worker.queued = None
                payload = message["payload"]
                self._settle(outcomes, ShardOutcome(
                    shard_id=item.shard_id,
                    status=str(payload.get("status", "error")),
                    payload=payload,
                    attempts=item.attempt + 1,
                    duration_s=float(payload.get("durationS", 0.0)),
                    error=str(payload.get("error", "")),
                    failures=list(item.failures)))
                if self._stopping():
                    return
