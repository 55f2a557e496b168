"""End-to-end sentinel campaigns: gates, determinism, closed loop."""

import json

import pytest

from repro.faults.plan import get_plan
from repro.lint import scenario_names
from repro.sentinel import (
    run_sentinel_campaign,
    run_sentinel_scenario,
    validate_sentinel_dict,
)

INSECURE = ["pkes-legacy", "onboard-insecure", "cariad-breach",
            "maas-platform"]


def scenario(name, plan="baseline", **kwargs):
    return run_sentinel_scenario(name, get_plan(plan), **kwargs)


class TestInputs:
    def test_unknown_scenario_lists_available(self):
        with pytest.raises(KeyError, match="onboard-hardened"):
            scenario("no-such-scenario")

    def test_duration_validated(self):
        with pytest.raises(ValueError, match="duration"):
            scenario("onboard-hardened", duration=0)


class TestDetectionGates:
    def test_hardened_baseline_is_alarm_free(self):
        # The false-positive gate: a resilient stack under everyday
        # faults must not page anyone.
        result = scenario("onboard-hardened", "baseline")
        assert result["detection"]["alarmRaised"] is False
        assert result["detection"]["alarmIncidents"] == 0
        assert result["sentinel"]["alarmedSources"] == []

    @pytest.mark.parametrize("name", INSECURE)
    def test_insecure_scenarios_alarm_before_safe_stop(self, name):
        result = scenario(name, "severe")
        detection = result["detection"]
        assert detection["alarmRaised"], name
        assert detection["detectedBeforeSafeStop"], name
        assert detection["trustCollapsed"], name

    def test_lead_ticks_computed_against_safe_stop(self):
        result = scenario("pkes-legacy", "severe")
        detection = result["detection"]
        assert detection["safeStopT"] is not None
        assert detection["leadTicks"] == (detection["safeStopT"]
                                          - detection["firstAlarmT"])
        assert detection["leadTicks"] > 0

    def test_hardened_recovers_service_after_isolation(self):
        # The closed loop in one scenario: trust collapse on the babbler
        # drives ISOLATE, degradation dips, then service recovers fully.
        result = scenario("onboard-hardened", "baseline")
        assert "ecu-babbler" in result["response"]["isolated"]
        levels = [c["level"] for c in result["degradation"]["changes"]]
        assert "degraded" in levels
        assert result["degradation"]["finalLevel"] == "full"


class TestDeterminism:
    def test_reports_are_byte_identical_per_plan_and_seed(self):
        first = run_sentinel_campaign(["onboard-insecure"], "severe")
        second = run_sentinel_campaign(["onboard-insecure"], "severe")
        assert json.dumps(first, sort_keys=True) == \
            json.dumps(second, sort_keys=True)

    def test_seed_changes_the_telemetry(self):
        base = scenario("onboard-insecure", "severe")
        other = scenario("onboard-insecure", "severe", base_seed=7)
        assert json.dumps(base, sort_keys=True) != \
            json.dumps(other, sort_keys=True)

    def test_campaign_document_validates(self):
        document = run_sentinel_campaign(
            scenario_names(), "baseline")
        validate_sentinel_dict(document)

    def test_severe_campaign_document_validates(self):
        document = run_sentinel_campaign(INSECURE, "severe", base_seed=3)
        validate_sentinel_dict(document)


class TestCampaignSummary:
    def test_summary_partitions_scenarios(self):
        document = run_sentinel_campaign(
            ["onboard-hardened", "onboard-insecure"], "severe")
        summary = document["summary"]
        assert summary["scenarioCount"] == 2
        assert "onboard-insecure" in summary["scenariosDetected"]
        assert sorted(summary["scenariosDetected"]
                      + summary["scenariosClean"]) == [
            "onboard-hardened", "onboard-insecure"]

    def test_unknown_plan_propagates(self):
        with pytest.raises(KeyError):
            run_sentinel_campaign(["onboard-hardened"], "no-such-plan")
