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

The static analyzers (lint, flow, redteam) read only the shard's
scenario, so their result is the same for every seed.  A worker may
therefore pass a ``memo``: the first ``ok`` result of each static
``(tool, scenario)`` it runs is kept there with its digest, and every
later shard of that cell reuses both.  The engine gives each run's
workers an empty memo, which each worker process fills on its own and
which dies with it; a direct call without one runs the analyzer every
time.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Callable

from repro.campaign.spec import PLAN_TOOLS, CampaignTool, ShardSpec

__all__ = ["execute_shard", "result_digest", "TOOL_EXECUTORS"]

#: A worker's memo: static ``(tool, scenario)`` -> ``(result, digest)``.
ShardMemo = dict[tuple[str, str], tuple[dict, str]]


def result_digest(result: dict) -> str:
    """SHA-256 over the canonical JSON encoding of a result document."""
    material = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(material.encode()).hexdigest()


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


def execute_shard(spec_dict: dict, memo: ShardMemo | None = None) -> dict:
    """Run one shard to completion; always returns a payload dict.

    The payload's deterministic core is ``shard``/``status``/``result``/
    ``digest``/``error`` — exactly what the journal persists and the
    final report embeds.  ``durationS`` is wall-clock bookkeeping for
    tables and benches only and never reaches the byte-compared report.
    With a ``memo``, a static shard whose cell already ran returns that
    run's result and digest (see the module docstring).
    """
    t0 = time.perf_counter()
    status, result, digest, error = "ok", None, "", ""
    try:
        spec = ShardSpec.from_dict(spec_dict)
        if spec.tool in PLAN_TOOLS:
            memo = None  # a plan-driven result depends on plan and seed
        key = (spec.tool_name, spec.scenario)
        if memo is not None and key in memo:
            result, digest = memo[key]
        else:
            result = TOOL_EXECUTORS[spec.tool](spec)
            digest = result_digest(result)
            if memo is not None:
                memo[key] = (result, digest)
    except Exception as exc:
        status, result, digest = "error", None, ""
        error = f"{type(exc).__name__}: {exc}"
    return {
        "shard": dict(spec_dict),
        "status": status,
        "result": result,
        "digest": digest,
        "error": error,
        "durationS": time.perf_counter() - t0,
    }
