"""The chaos JSON schema validator: accepts real docs, rejects mutations."""

import copy

import pytest

from repro.faults.chaos import run_chaos_campaign
from repro.faults.report import ChaosSchemaError, validate_chaos_dict


@pytest.fixture(scope="module")
def document():
    return run_chaos_campaign(["cariad-breach", "maas-platform"],
                              "baseline", base_seed=0, duration=20)


def mutated(document, mutate):
    clone = copy.deepcopy(document)
    mutate(clone)
    return clone


class TestAccepts:
    def test_real_campaign_document(self, document):
        validate_chaos_dict(document)

    def test_round_trips_through_json(self, document):
        import json
        validate_chaos_dict(json.loads(json.dumps(document)))


class TestRejects:
    def check(self, document, mutate, match):
        with pytest.raises(ChaosSchemaError, match=match):
            validate_chaos_dict(mutated(document, mutate))

    def test_non_dict(self):
        with pytest.raises(ChaosSchemaError, match="object"):
            validate_chaos_dict(["not", "a", "report"])

    def test_wrong_version(self, document):
        self.check(document, lambda d: d.update(version="2.0"),
                   "version: must be")

    def test_wrong_tool_name(self, document):
        self.check(document,
                   lambda d: d["tool"].update(name="repro-chaos-evil"),
                   "tool.name: must be")

    def test_extra_top_level_key(self, document):
        self.check(document, lambda d: d.update(extra=1),
                   "document: keys mismatch")

    def test_missing_scenario_key(self, document):
        self.check(document, lambda d: d["scenarios"][0].pop("retry"),
                   "scenarios\\[0\\]")

    def test_unknown_fault_kind_in_by_kind(self, document):
        def mutate(d):
            d["scenarios"][0]["faults"]["byKind"] = {"meteor-strike": 1}
            d["scenarios"][0]["faults"]["injected"] = 1
        self.check(document, mutate, "byKind.meteor-strike: must be one of")

    def test_by_kind_must_sum_to_injected(self, document):
        self.check(document,
                   lambda d: d["scenarios"][0]["faults"].update(
                       injected=d["scenarios"][0]["faults"]["injected"] + 1),
                   "sum to faults.injected")

    def test_availability_bounds(self, document):
        self.check(document,
                   lambda d: d["scenarios"][0]["layers"][0].update(
                       availability=1.2),
                   "availability: must be in")

    def test_successes_cannot_exceed_attempts(self, document):
        def mutate(d):
            entry = d["scenarios"][0]["layers"][0]
            entry["successes"] = entry["attempts"] + 1
        self.check(document, mutate, "successes must not exceed")

    def test_unknown_service_level(self, document):
        self.check(document,
                   lambda d: d["scenarios"][0]["degradation"].update(
                       minLevel="limp-home"),
                   "minLevel")

    def test_unknown_breaker_state(self, document):
        def mutate(d):
            for scenario in d["scenarios"]:
                if scenario["breakers"]:
                    scenario["breakers"][0]["finalState"] = "ajar"
                    return
            raise AssertionError("fixture should include a breaker")
        self.check(document, mutate, "finalState: must be one of")

    def test_duplicate_scenarios(self, document):
        self.check(document,
                   lambda d: d["scenarios"].append(
                       copy.deepcopy(d["scenarios"][0])),
                   "duplicate scenario|scenarioCount")

    def test_summary_fault_total_is_cross_checked(self, document):
        self.check(document,
                   lambda d: d["summary"].update(
                       faultsInjected=d["summary"]["faultsInjected"] + 1),
                   "faultsInjected")

    def test_summary_layers_sustained_is_cross_checked(self, document):
        self.check(document,
                   lambda d: d["summary"].update(layersSustained=[]),
                   "layersSustained")

    def test_plan_spec_keys_are_exact(self, document):
        self.check(document,
                   lambda d: d["plan"]["faults"][0].pop("magnitude"),
                   "plan.faults\\[0\\]")
