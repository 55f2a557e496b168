"""The one scenario record stays consistent with what each tool reads.

Every tool resolves scenarios through ``repro.lint.SCENARIOS``, so the
names cannot drift apart; what can drift is a record's own fields.  A
sentinel anchor or sender that names no flow-graph node is silently
dropped by ``CascadeCorrelator.from_flow_graph``, and a subsystem the
chaos campaign does not book under a layer would fail only at run time.
"""

import pytest

from repro.faults.harness import SUBSYSTEM_LAYER
from repro.flow.graph import build_flow_graph
from repro.lint import SCENARIOS, scenario_names


@pytest.mark.parametrize("name", scenario_names())
def test_anchors_and_senders_are_flow_graph_nodes(name):
    scenario = SCENARIOS[name]
    graph = build_flow_graph(scenario.build())
    named = [*scenario.anchors.values(), *scenario.senders]
    assert [node for node in named if node not in graph] == []


@pytest.mark.parametrize("name", scenario_names())
def test_subsystems_are_booked_under_a_layer(name):
    subsystems = SCENARIOS[name].subsystems
    assert subsystems
    assert set(subsystems) <= set(SUBSYSTEM_LAYER)


@pytest.mark.parametrize("name", scenario_names())
def test_senders_exactly_when_the_can_bus_is_exercised(name):
    scenario = SCENARIOS[name]
    assert ("ivn" in scenario.subsystems) == bool(scenario.senders)
