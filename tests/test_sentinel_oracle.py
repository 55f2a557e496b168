"""Equivalence oracle for the typed sentinel runner and the change-driven tick.

:func:`repro.sentinel.run_sentinel_scenario` hands telemetry to the engine
as typed records and ticks only what changed.  The earlier runner and
tick (``tests/sentinel_reference.py``) stream the same telemetry as
events through a live log into an engine that redoes every step on every
tick.  Hypothesis drives both over scenario, plan, base seed and
duration, and the documents must be byte-identical.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import get_plan, plan_names
from repro.lint import scenario_names
from repro.sentinel import run_sentinel_scenario
from tests.sentinel_reference import reference_run


def canonical(document: dict) -> str:
    return json.dumps(document, sort_keys=True)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(scenario_names())),
       plan=st.sampled_from(sorted(plan_names())),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       duration=st.integers(min_value=1, max_value=400))
def test_documents_match_the_reference(name, plan, seed, duration):
    fault_plan = get_plan(plan)
    fast = run_sentinel_scenario(name, fault_plan, base_seed=seed,
                                 duration=duration)
    slow = reference_run(name, fault_plan, base_seed=seed, duration=duration)
    assert canonical(fast) == canonical(slow)
