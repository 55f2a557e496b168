"""The typed sentinel path: exact counters and a per-run correlator.

Campaigns hand telemetry to the engine as typed records, with no log
attached, so the two stream counters in the document must still say what
a log-attached engine says: ``eventsConsumed`` counts the telemetry
records, and ``eventsEmitted`` counts the engine's verdicts (each one
formatted and logged only when a log is attached).  The correlator's
flow-graph adjacency is built once per process per scenario; every run
must still start from an empty incident list.
"""

from __future__ import annotations

import json

import pytest

from repro.faults.plan import get_plan
from repro.lint import scenario_names
from repro.sentinel import run_sentinel_scenario
from repro.sentinel.campaign import _adjacency
from tests.sentinel_reference import reference_run


@pytest.mark.parametrize("plan", ["baseline", "severe"])
@pytest.mark.parametrize("name", sorted(scenario_names()))
def test_stream_counters_match_a_log_attached_engine(name, plan):
    typed = run_sentinel_scenario(name, get_plan(plan))["sentinel"]
    logged = reference_run(name, get_plan(plan))["sentinel"]
    assert typed["eventsConsumed"] == logged["eventsConsumed"] > 0
    assert typed["eventsEmitted"] == logged["eventsEmitted"] > 0


def test_cached_adjacency_carries_no_incident_state():
    severe = get_plan("severe")

    def document(name: str) -> str:
        return json.dumps(run_sentinel_scenario(name, severe, base_seed=3),
                          sort_keys=True)

    first = document("onboard-insecure")
    hits = _adjacency.cache_info().hits
    document("pkes-legacy")
    again = document("onboard-insecure")
    assert _adjacency.cache_info().hits >= hits + 2
    assert json.loads(first)["sentinel"]["incidents"]
    assert again == first
