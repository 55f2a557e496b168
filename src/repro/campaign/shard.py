"""Worker-side execution of one campaign shard.

:func:`execute_shard` is the only campaign code that runs inside a
supervised worker process, so it speaks plain dicts across the process
boundary and never lets a tool exception escape — a deterministic tool
failure must come back as a classified ``error`` payload the supervisor
can journal, not a traceback that kills the worker (worker *deaths* are
the supervisor's signal for retry/quarantine, and they must mean
infrastructure trouble, not tool verdicts).

Each tool executor returns the same JSON document the tool's own CLI
would emit for that ``(scenario, plan, seed)`` cell, which is already
byte-deterministic per the repo's core invariant; :func:`result_digest`
fixes the canonical encoding so the journal, the resume path, and the
report validator all agree on what "the same result" means.

Each result is encoded exactly once, in the process that made it.
Every worker function (this module's and
:func:`~repro.campaign.experiment.execute_experiment`) returns through
:func:`payload`, so a payload's ``result`` is always the result's
canonical JSON text (:data:`canonical_json`), or ``None``, and its
``digest`` that text's SHA-256.  The engine decodes the text once and
splices the same text into the journal record, so neither the engine
nor the journal encodes a result again.

The static analyzers (lint, flow, redteam) read only the shard's
scenario, so their result is the same for every seed.  The worker runs
every shard it is sent; it is the engine that sends only the first
shard of each static ``(tool, scenario)`` cell and settles the rest of
the cell itself (see :mod:`~repro.campaign.engine`).
"""

from __future__ import annotations

import hashlib
import time
from typing import Callable

from repro.campaign.spec import CampaignTool, ShardSpec, canonical_json

__all__ = ["canonical_json", "execute_shard", "payload", "result_digest",
           "text_digest", "TOOL_EXECUTORS"]

def text_digest(text: str) -> str:
    """SHA-256 over a result's canonical JSON text."""
    return hashlib.sha256(text.encode()).hexdigest()


def result_digest(result: dict) -> str:
    """SHA-256 over the canonical JSON encoding of a result document."""
    return text_digest(canonical_json(result))


def _run_chaos(spec: ShardSpec) -> dict:
    from repro.faults import get_plan, run_chaos_scenario

    return run_chaos_scenario(spec.scenario, get_plan(spec.plan),
                              base_seed=spec.seed, duration=spec.duration)


def _run_sentinel(spec: ShardSpec) -> dict:
    from repro.faults import get_plan
    from repro.sentinel import run_sentinel_scenario

    return run_sentinel_scenario(spec.scenario, get_plan(spec.plan),
                                 base_seed=spec.seed, duration=spec.duration)


def _run_redteam(spec: ShardSpec) -> dict:
    from repro.lint import Analysis, build_scenario
    from repro.redteam import scenario_to_dict

    return scenario_to_dict(Analysis(build_scenario(spec.scenario)).plan)


def _run_flow(spec: ShardSpec) -> dict:
    from repro.flow import flow_linter
    from repro.lint import build_scenario

    linter = flow_linter()
    report = linter.run(build_scenario(spec.scenario))
    return report.to_json_dict(linter.enabled_rules())


def _run_lint(spec: ShardSpec) -> dict:
    from repro.lint import Linter, build_scenario

    linter = Linter()
    report = linter.run(build_scenario(spec.scenario))
    return report.to_json_dict(linter.enabled_rules())


TOOL_EXECUTORS: dict[CampaignTool, Callable[[ShardSpec], dict]] = {
    CampaignTool.CHAOS: _run_chaos,
    CampaignTool.SENTINEL: _run_sentinel,
    CampaignTool.REDTEAM: _run_redteam,
    CampaignTool.FLOW: _run_flow,
    CampaignTool.LINT: _run_lint,
}


def payload(shard: dict, text: str | None, error: str, t0: float) -> dict:
    """The payload a worker function returns for ``shard``.

    ``text`` is the result document's canonical JSON text, ``None`` when
    the shard failed with ``error``.  The deterministic core is
    ``shard``/``status``/``result``/``digest``/``error`` — exactly what
    the journal persists and the final report embeds; ``durationS``
    (seconds since ``t0``) is wall-clock bookkeeping for tables and
    benches only and never reaches the byte-compared report.
    """
    return {
        "shard": dict(shard),
        "status": "error" if error else "ok",
        "result": text,
        "digest": "" if text is None else text_digest(text),
        "error": error,
        "durationS": time.perf_counter() - t0,
    }


def execute_shard(spec_dict: dict) -> dict:
    """Run one shard to completion; always returns a :func:`payload`."""
    t0 = time.perf_counter()
    text, error = None, ""
    try:
        spec = ShardSpec.from_dict(spec_dict)
        text = canonical_json(TOOL_EXECUTORS[spec.tool](spec))
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    return payload(spec_dict, text, error, t0)
