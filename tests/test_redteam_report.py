"""The campaign JSON document: schema validation and renderers."""

import copy
import json

import pytest

from repro.lint import Analysis, build_scenario
from repro.lint.report import SchemaError
from repro.redteam import (redteam_document, render_campaigns, render_summary,
                           validate_redteam_dict)

ALL_SCENARIOS = ["pkes-legacy", "onboard-insecure", "onboard-hardened",
                 "cariad-breach", "maas-platform"]


def plan_of(name):
    return Analysis(build_scenario(name)).plan


def fleet_document(base_seed):
    return redteam_document([plan_of(name) for name in ALL_SCENARIOS],
                            base_seed=base_seed)


@pytest.fixture(scope="module")
def document():
    return fleet_document(7)


class TestDocument:
    def test_validates_against_schema(self, document):
        validate_redteam_dict(document)

    def test_summary_reflects_scenarios(self, document):
        summary = document["summary"]
        assert summary["scenarioCount"] == len(ALL_SCENARIOS)
        assert summary["defeatedScenarios"] == ["onboard-hardened"]
        assert summary["campaignCount"] >= 4
        cheapest = summary["cheapest"]
        assert cheapest["totalCost"] == min(
            c["totalCost"] for s in document["scenarios"]
            for c in s["campaigns"])

    def test_base_seed_carried_verbatim(self, document):
        assert document["baseSeed"] == 7

    def test_steps_carry_defense_and_grants(self, document):
        for scenario in document["scenarios"]:
            for campaign in scenario["campaigns"]:
                for step in campaign["steps"]:
                    assert step["defense"]
                    assert all(":" in grant for grant in step["grants"])

    def test_byte_identical_per_scenario_and_seed(self):
        first = json.dumps(fleet_document(7), sort_keys=True)
        second = json.dumps(fleet_document(7), sort_keys=True)
        assert first == second


class TestSchemaRejections:
    def _broken(self, document, mutate):
        broken = copy.deepcopy(document)
        mutate(broken)
        with pytest.raises(SchemaError):
            validate_redteam_dict(broken)

    def test_rejects_wrong_version(self, document):
        self._broken(document, lambda d: d.update(version="2.0"))

    def test_rejects_wrong_tool_name(self, document):
        self._broken(document,
                     lambda d: d["tool"].update(name="other-tool"))

    def test_rejects_extra_top_level_key(self, document):
        self._broken(document, lambda d: d.update(extra=1))

    def test_rejects_inconsistent_defeated_flag(self, document):
        def mutate(d):
            d["scenarios"][0]["defeated"] = \
                not d["scenarios"][0]["defeated"]
        self._broken(document, mutate)

    def test_rejects_wrong_campaign_count(self, document):
        self._broken(document,
                     lambda d: d["summary"].update(campaignCount=999))

    def test_rejects_cheapest_naming_another_campaign(self, document):
        dearest = max((campaign["totalCost"], scenario["scenario"],
                       campaign["sink"])
                      for scenario in document["scenarios"]
                      for campaign in scenario["campaigns"])
        assert dearest[0] > document["summary"]["cheapest"]["totalCost"]
        self._broken(document, lambda d: d["summary"].update(cheapest={
            "scenario": dearest[1], "sink": dearest[2],
            "totalCost": dearest[0]}))

    def test_rejects_total_cost_mismatch(self, document):
        def mutate(d):
            for scenario in d["scenarios"]:
                if scenario["campaigns"]:
                    scenario["campaigns"][0]["totalCost"] += 1.0
                    return
        self._broken(document, mutate)

    def test_rejects_bad_rank(self, document):
        def mutate(d):
            for scenario in d["scenarios"]:
                if scenario["campaigns"]:
                    scenario["campaigns"][0]["rank"] = 99
                    return
        self._broken(document, mutate)

    def test_rejects_unknown_layer_in_step(self, document):
        def mutate(d):
            for scenario in d["scenarios"]:
                if scenario["campaigns"]:
                    scenario["campaigns"][0]["steps"][0]["layer"] = "warp"
                    return
        self._broken(document, mutate)


class TestRenderers:
    def test_summary_names_cheapest_campaign(self):
        text = render_summary(plan_of("pkes-legacy"))
        assert "pkes-legacy" in text
        assert "cheapest: keyfob => immobilizer" in text

    def test_summary_marks_defeated_target(self):
        text = render_summary(plan_of("onboard-hardened"))
        assert "DEFEATED" in text

    def test_campaigns_render_hops_and_defenses(self):
        text = render_campaigns(plan_of("pkes-legacy"))
        assert "#1 keyfob => immobilizer" in text
        assert "defeated by:" in text
        assert "D1 " in text  # the availability disruption renders too

    def test_top_limits_rendered_campaigns(self):
        result = plan_of("onboard-insecure")
        full = render_campaigns(result)
        top = render_campaigns(result, top=1)
        assert full.count("#") > top.count("#")
        assert "#1 " in top
