"""The campaign planner: acceptance-criteria pins and search invariants.

The headline properties from the issue: every insecure scenario yields
at least one ranked *multi-stage* campaign with a per-step defense,
``onboard-hardened`` yields zero, and planning is deterministic —
identical inputs give identical rankings.
"""

import pytest

from repro.flow import analyze
from repro.lint import Analysis, build_scenario
from repro.redteam import plan
from repro.redteam.capability import control

INSECURE = ["pkes-legacy", "onboard-insecure", "cariad-breach",
            "maas-platform"]
ALL_SCENARIOS = INSECURE + ["onboard-hardened"]


def plan_of(name):
    return Analysis(build_scenario(name)).plan


class TestAcceptanceCriteria:
    @pytest.mark.parametrize("name", INSECURE)
    def test_insecure_scenario_yields_multi_stage_campaign(self, name):
        result = plan_of(name)
        assert not result.defeated
        multi = [c for c in result.campaigns if c.multi_stage]
        assert multi, f"{name}: no multi-stage campaign"
        for campaign in result.campaigns:
            for step in campaign.steps:
                assert step.defense  # per-step breaking defense

    def test_hardened_scenario_defeats_full_library(self):
        result = plan_of("onboard-hardened")
        assert result.defeated
        assert result.campaigns == []
        assert result.disruptions == []

    def test_pkes_relay_chain_reaches_immobilizer(self):
        result = plan_of("pkes-legacy")
        campaign = result.campaign_for("immobilizer")
        assert campaign is not None
        assert campaign.entry.technique == "pkes-relay"
        assert len(campaign.steps) == 4
        assert campaign.layers == ("physical", "network")

    def test_cariad_campaign_reaches_the_bucket(self):
        result = plan_of("cariad-breach")
        sinks = result.campaign_sinks()
        assert any("bucket" in sink or "store" in sink for sink in sinks)


class TestDeterminism:
    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_plan_twice_is_identical(self, name):
        first = plan_of(name)
        second = plan_of(name)
        assert first.library == second.library
        assert first.campaigns == second.campaigns
        assert first.disruptions == second.disruptions
        assert first.acquired == second.acquired

    @pytest.mark.parametrize("name", INSECURE)
    def test_campaigns_ranked_cheapest_first(self, name):
        result = plan_of(name)
        costs = [c.total_cost for c in result.campaigns]
        assert costs == sorted(costs)


class TestSearchInvariants:
    @pytest.mark.parametrize("name", INSECURE)
    def test_first_step_is_always_an_entry_attack(self, name):
        for campaign in plan_of(name).campaigns:
            assert campaign.entry.is_entry

    @pytest.mark.parametrize("name", INSECURE)
    def test_steps_form_a_closed_capability_chain(self, name):
        """Each step's requirements are granted by earlier steps."""
        for campaign in plan_of(name).campaigns:
            held = set()
            for step in campaign.steps:
                assert step.requires <= held, campaign.goal.label
                held |= step.grants

    @pytest.mark.parametrize("name", INSECURE)
    def test_total_cost_sums_unique_steps(self, name):
        for campaign in plan_of(name).campaigns:
            assert campaign.total_cost == pytest.approx(
                sum(step.cost for step in campaign.steps))
            ids = [step.attack_id for step in campaign.steps]
            assert len(ids) == len(set(ids))  # shared prereqs counted once

    @pytest.mark.parametrize("name", INSECURE)
    def test_acquired_costs_are_cheapest(self, name):
        """No attack could deliver a capability cheaper than recorded."""
        result = plan_of(name)
        acquired = result.acquired
        for attack in result.library:
            if not all(r in acquired for r in attack.requires):
                continue
            offered = attack.cost + sum(acquired[r] for r in attack.requires)
            for capability in attack.grants:
                assert capability in acquired
                assert acquired[capability] <= offered + 1e-9, \
                    f"{attack.attack_id} undercuts {capability.label}"

    def test_goal_of_each_campaign_is_its_sink(self):
        result = plan_of("pkes-legacy")
        for campaign in result.campaigns:
            assert campaign.goal == control(campaign.sink)

    def test_campaign_for_unknown_sink_is_none(self):
        assert plan_of("pkes-legacy").campaign_for("no-such") is None

    def test_plan_accepts_precomputed_flow_result(self):
        target = build_scenario("pkes-legacy")
        flow = analyze(target)
        result = plan(target, flow)
        assert result.flow is flow
        assert not result.defeated

    def test_empty_campaign_rejected(self):
        from repro.redteam import Campaign

        with pytest.raises(ValueError, match="at least one step"):
            Campaign(scenario="x", goal=control("y"), steps=())
