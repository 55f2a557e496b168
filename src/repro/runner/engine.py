"""The cached experiment sweep, run on the campaign's supervised pool.

:class:`SweepRunner` takes experiments from the registry and runs them
to completion on :class:`~repro.campaign.supervisor.Supervisor`, the
repo's one worker pool:

- **Parallelism** — ``jobs`` supervised worker processes; each worker
  runs one experiment's bench file as a subprocess and hands back a
  plain result document.
- **Timeout + restarts** — every experiment gets one time budget.  A
  worker crash or hang restarts the experiment on a fresh worker with
  what is left of that budget; after three worker failures it is
  reported as ``error``.  A failing test is never retried.
- **Caching** — results are looked up in / written to a
  content-addressed :class:`~repro.runner.cache.ResultCache`; a warm
  re-run reports unchanged experiments as ``cached`` without spawning
  anything.
- **Seed sharding** — each experiment's worker receives a seed derived
  with :func:`repro.core.rng.derive_seed` from the sweep's base seed,
  so replicated sweeps (``--base-seed N``) are deterministic per
  experiment and decorrelated across experiments.
- **Interrupts** — :meth:`SweepRunner.request_stop` (or a Ctrl-C) ends
  the sweep early with a partial report marked ``interrupted``.
- **Observability** — a ``runner.sweep`` span with one child span per
  executed experiment, ``runner.*`` counters/histograms, and
  experiment start/done events collected on a sweep
  :class:`~repro.obs.timeline.Timeline` (mirrored into the global
  :data:`~repro.obs.runtime.OBS` when instrumentation is enabled).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.campaign.supervisor import ShardOutcome, Supervisor
from repro.core.layers import Layer
from repro.core.rng import derive_seed
from repro.experiments import Experiment, benchmarks_dir
from repro.obs.events import EventKind, EventLog, SimEvent
from repro.obs.runtime import OBS
from repro.obs.trace import Span
from repro.runner.cache import ResultCache, experiment_key, tree_digest
from repro.runner.worker import execute

__all__ = ["ExperimentResult", "SweepRunner", "DEFAULT_COMMAND_TEMPLATE",
           "DEFAULT_TIMEOUT_S"]

#: Worker argv template; ``{python}`` and ``{bench}`` are substituted.
DEFAULT_COMMAND_TEMPLATE: tuple[str, ...] = (
    "{python}", "-m", "pytest", "{bench}", "--benchmark-only", "-q",
    "-p", "no:cacheprovider",
)

DEFAULT_TIMEOUT_S = 900.0

#: Statuses that count as success (a cache hit implies a past pass).
OK_STATUSES = frozenset({"passed", "cached"})


@dataclass
class ExperimentResult:
    """Outcome of one experiment within a sweep."""

    exp_id: str
    status: str
    exit_code: int
    duration_s: float
    seed: int
    retries: int = 0
    cached: bool = False
    cache_key: str = ""
    artifacts: list[dict] = field(default_factory=list)
    output_tail: str = ""
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status in OK_STATUSES

    def to_dict(self) -> dict:
        return {
            "id": self.exp_id,
            "status": self.status,
            "exitCode": self.exit_code,
            "durationS": self.duration_s,
            "seed": self.seed,
            "retries": self.retries,
            "cached": self.cached,
            "cacheKey": self.cache_key,
            "artifacts": [dict(a) for a in self.artifacts],
            "error": self.error,
        }


class SweepRunner:
    """Schedule a set of experiments and collect a sweep report."""

    def __init__(self, experiments: Iterable[Experiment], *,
                 jobs: int = 1,
                 cache: ResultCache | None = None,
                 base_seed: int = 0,
                 timeout_s: float = DEFAULT_TIMEOUT_S,
                 bench_dir: Path | None = None,
                 command_template: Sequence[str] = DEFAULT_COMMAND_TEMPLATE,
                 digest_paths: Sequence[Path] | None = None,
                 on_result: Callable[[ExperimentResult], None] | None = None,
                 ) -> None:
        self.experiments = list(experiments)
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        #: ``None`` runs uncached: no lookups, no stores.
        self.cache = cache
        self.base_seed = base_seed
        self.timeout_s = timeout_s
        self.bench_dir = Path(bench_dir) if bench_dir else benchmarks_dir()
        self.command_template = tuple(command_template)
        if digest_paths is None:
            src_tree = Path(__file__).resolve().parents[1]  # src/repro
            digest_paths = [src_tree, benchmarks_dir() / "conftest.py"]
        self.digest_paths = list(digest_paths)
        self.on_result = on_result
        self.events = EventLog(capacity=8192)
        self._stop_requested = False
        self._t0 = 0.0

    def request_stop(self) -> None:
        """Ask the sweep to stop at the next boundary with partial results."""
        self._stop_requested = True

    # -- helpers -------------------------------------------------------------

    def seed_for(self, exp_id: str) -> int:
        """The deterministic per-experiment seed shard."""
        return derive_seed(f"sweep/{exp_id}", self.base_seed)

    def _command(self, bench_path: Path) -> list[str]:
        return [part.format(python=sys.executable, bench=str(bench_path))
                for part in self.command_template]

    def _spec(self, experiment: Experiment) -> dict:
        bench_path = self.bench_dir / experiment.bench_file
        return {
            "id": experiment.exp_id,
            "command": self._command(bench_path),
            "seed": self.seed_for(experiment.exp_id),
            "base_seed": self.base_seed,
        }

    def _document(self, outcome: ShardOutcome) -> dict:
        """The result document of a settled experiment.

        A worker's own payload is the document; a timeout or a
        quarantine (three dead or hung workers) has none, so one is
        built with status ``timeout`` or ``error``.
        """
        if outcome.payload is not None:
            return outcome.payload
        return {"id": outcome.shard_id,
                "status": "timeout" if outcome.status == "timeout" else "error",
                "exitCode": -1, "durationS": outcome.duration_s,
                "seed": self.seed_for(outcome.shard_id), "artifacts": [],
                "outputTail": "", "error": outcome.error}

    def _emit(self, kind: EventKind, exp_id: str, message: str,
              **fields: str | int | float | bool) -> SimEvent:
        t = time.perf_counter() - self._t0
        event = self.events.emit(kind, Layer.SYSTEM_OF_SYSTEMS, exp_id,
                                 message, t=t, **fields)
        if OBS.enabled:
            OBS.emit(kind, Layer.SYSTEM_OF_SYSTEMS, exp_id, message,
                     t=t, **fields)
        return event

    def _record(self, result: ExperimentResult, root: object) -> None:
        """Book-keeping common to fresh and cached results."""
        if OBS.enabled:
            OBS.count(f"runner.{result.status}")
            OBS.count("runner.completed")
            if not result.cached:
                OBS.observe("runner.experiment_s", result.duration_s)
            if isinstance(root, Span):
                root.children.append(Span(
                    name=f"runner.exp.{result.exp_id}",
                    tags={"status": result.status,
                          "cached": result.cached,
                          "retries": result.retries},
                    wall_s=0.0 if result.cached else result.duration_s,
                    cpu_s=0.0,
                    status="ok" if result.ok else "error",
                    error=None if result.ok else (result.error
                                                  or result.status),
                ))
        self._emit(EventKind.EXPERIMENT_DONE, result.exp_id,
                   f"{result.status} in {result.duration_s:.3f}s"
                   + (" (cached)" if result.cached else ""),
                   status=result.status, cached=result.cached,
                   retries=result.retries)
        if self.on_result is not None:
            self.on_result(result)

    @staticmethod
    def _result_from_doc(document: dict, *, key: str, cached: bool,
                         retries: int = 0) -> ExperimentResult:
        return ExperimentResult(
            exp_id=str(document.get("id", "")),
            status="cached" if cached else str(document.get("status", "error")),
            exit_code=int(document.get("exitCode", -1)),
            duration_s=float(document.get("durationS", 0.0)),
            seed=int(document.get("seed", 0)),
            retries=retries,
            cached=cached,
            cache_key=key,
            artifacts=list(document.get("artifacts", [])),
            output_tail=str(document.get("outputTail", "")),
            error=str(document.get("error", "")),
        )

    # -- the sweep -----------------------------------------------------------

    def run(self) -> "SweepReport":
        from repro.runner.report import SweepReport

        self._t0 = time.perf_counter()
        self._stop_requested = False
        tree = tree_digest(self.digest_paths)
        results: dict[str, ExperimentResult] = {}
        keys: dict[str, str] = {}
        pending: list[dict] = []

        with OBS.span("runner.sweep", jobs=self.jobs,
                      experiments=len(self.experiments)) as root:
            for experiment in self.experiments:
                key = experiment_key(
                    experiment.exp_id, self.bench_dir / experiment.bench_file,
                    tree=tree, base_seed=self.base_seed,
                    command_template=self.command_template)
                document = self.cache.get(key) if self.cache is not None \
                    else None
                if document is not None:
                    result = self._result_from_doc(document, key=key,
                                                   cached=True)
                    result.exp_id = experiment.exp_id
                    results[experiment.exp_id] = result
                    self._record(result, root)
                else:
                    keys[experiment.exp_id] = key
                    pending.append(self._spec(experiment))

            def on_start(exp_id: str, attempt: int, budget_s: float) -> None:
                self._emit(EventKind.EXPERIMENT_START, exp_id,
                           "dispatched" if attempt == 0 else
                           f"restarted after worker failure "
                           f"({budget_s:.1f}s budget left)", attempt=attempt)
                if OBS.enabled:
                    OBS.count("runner.scheduled")
                    if attempt:
                        OBS.count("runner.retries")

            def on_outcome(outcome: ShardOutcome) -> None:
                document = self._document(outcome)
                key = keys[outcome.shard_id]
                result = self._result_from_doc(
                    document, key=key, cached=False,
                    retries=outcome.attempts - 1)
                if self.cache is not None and result.status == "passed":
                    self.cache.put(key, document)
                results[outcome.shard_id] = result
                self._record(result, root)

            _, interrupted = Supervisor(
                execute, jobs=self.jobs, shard_timeout_s=self.timeout_s,
                on_start=on_start, on_outcome=on_outcome,
                should_stop=lambda: self._stop_requested).run(pending)
            if interrupted and OBS.enabled:
                OBS.count("runner.interrupted")

        wall_s = time.perf_counter() - self._t0
        ordered = [results[e.exp_id] for e in self.experiments
                   if e.exp_id in results]
        return SweepReport(ordered, jobs=self.jobs,
                           cache_enabled=self.cache is not None,
                           base_seed=self.base_seed, wall_s=wall_s,
                           tree=tree, events=list(self.events),
                           interrupted=interrupted)
