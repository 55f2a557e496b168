"""``repro.runner`` — the parallel, cached experiment-sweep engine.

The reproduction's whole-surface sweep (``python -m repro run all``):
experiments from :data:`repro.experiments.EXPERIMENTS` fan out across
the campaign engine's supervised worker pool
(:class:`repro.campaign.supervisor.Supervisor`); each worker calls one
experiment's bench tests in its own process and keeps the tables they
show.  Each experiment gets one time budget and a deterministic seed
shard, and a content-addressed result cache keyed by the bench file +
the ``src/repro`` tree lets a warm re-run report everything unchanged
as ``cached``.  A worker crash or hang restarts the experiment with the
remaining budget; after three worker failures it is reported as
``error``; a failing test is never retried.  The paper's layered-defense
argument depends on exactly this: cross-layer sweeps cheap enough to
re-run on every change.

Quickstart::

    from repro.experiments import EXPERIMENTS
    from repro.runner import ResultCache, SweepRunner

    report = SweepRunner(EXPERIMENTS, jobs=4, cache=ResultCache()).run()
    print(report.to_table())

CLI::

    python -m repro run all --jobs 4            # parallel, cached sweep
    python -m repro run all --jobs 4 --json     # validated sweep document
    python -m repro run fig2 --no-cache         # force one re-run
"""

from repro.runner.cache import (CACHE_VERSION, ResultCache, default_cache_dir,
                                experiment_key, tree_digest)
from repro.runner.engine import DEFAULT_TIMEOUT_S, ExperimentResult, SweepRunner
from repro.runner.report import (SweepReport, SweepSchemaError,
                                 validate_sweep_dict)
from repro.runner.worker import execute

__all__ = [
    "CACHE_VERSION",
    "DEFAULT_TIMEOUT_S",
    "ExperimentResult",
    "ResultCache",
    "SweepReport",
    "SweepRunner",
    "SweepSchemaError",
    "default_cache_dir",
    "execute",
    "experiment_key",
    "tree_digest",
    "validate_sweep_dict",
]
