"""BENCH-REDTEAM — cost and determinism of whole-fleet campaign planning.

The red-team planner is the third static analyzer: it runs inside every
default lint invocation (RT rules) and inside the CI differential gate,
so it must plan the whole fleet in milliseconds.  This bench pins two
properties:

1. **Per-scenario planning cost.** Library build + capability search +
   campaign reconstruction timed per scenario; the five-scenario fleet
   must plan in well under a second.
2. **Byte-identical output per (scenario, base seed).** The planner is
   purely static — serializing the campaign document twice for the
   same inputs must produce the exact same bytes, which is what makes
   the differential gates and golden campaigns trustworthy.

The measured numbers live in the tables the bench shows, which
``python -m repro run BENCH-REDTEAM --json`` records as artifacts.
"""

from __future__ import annotations

import json

from repro.experiments import best_of
from repro.flow import analyze
from repro.lint import Analysis
from repro.lint.scenarios import SCENARIOS, build_scenario
from repro.redteam import plan, redteam_document

#: The fleet must plan end to end within this budget (seconds) —
#: generous on CI hardware, tight enough to catch a super-linear
#: regression in the capability search.
FLEET_BUDGET_S = 2.0


def test_fleet_planning_cost(show, benchmark):
    rows = []
    total_s = 0.0
    for name in SCENARIOS:
        target = build_scenario(name)
        flow = analyze(target)
        seconds = best_of(lambda t=target, f=flow: plan(t, f))
        total_s += seconds
        result = plan(target, flow)
        rows.append((name, len(result.library), len(result.campaigns),
                     len(result.disruptions), f"{seconds * 1e3:7.2f}"))
    rows.append(("fleet total", "-", "-", "-", f"{total_s * 1e3:7.2f}"))

    show("BENCH-REDTEAM — campaign planning per scenario",
         rows, header=("scenario", "attacks", "campaigns", "disrupt", "ms"))
    target = build_scenario("onboard-insecure")
    flow = analyze(target)
    benchmark(lambda: plan(target, flow))
    assert total_s < FLEET_BUDGET_S, f"fleet took {total_s:.2f}s"


def test_output_byte_identical_per_scenario_and_seed(show):
    names = sorted(SCENARIOS)

    def document(base_seed: int) -> str:
        results = [Analysis(build_scenario(name)).plan for name in names]
        return json.dumps(redteam_document(results, base_seed=base_seed),
                          sort_keys=True)

    rows = []
    for base_seed in (0, 7):
        first, second = document(base_seed), document(base_seed)
        assert first == second, f"seed {base_seed}: output not stable"
        rows.append((base_seed, len(first), "identical"))
    show("BENCH-REDTEAM — document stability per (fleet, seed)",
         rows, header=("seed", "bytes", "verdict"))


def test_library_build_alone_is_cheap(benchmark):
    from repro.redteam import build_attack_library

    target = build_scenario("onboard-insecure")
    flow = analyze(target)
    library = benchmark(lambda: build_attack_library(target, flow))
    assert len(library) >= 20
