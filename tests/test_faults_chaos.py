"""Chaos campaigns: determinism, availability, and the degradation gates."""

import json

import pytest

from repro.faults.chaos import run_chaos_campaign, run_chaos_scenario
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, baseline_plan, get_plan
from repro.faults.report import validate_chaos_dict
from repro.lint import SCENARIOS, scenario_names

ALL = scenario_names()


@pytest.fixture(scope="module")
def baseline_campaign():
    return run_chaos_campaign(ALL, "baseline", base_seed=0)


@pytest.fixture(scope="module")
def severe_campaign():
    return run_chaos_campaign(ALL, "severe", base_seed=0)


class TestDeterminism:
    def test_same_seed_is_byte_identical(self, baseline_campaign):
        replay = run_chaos_campaign(ALL, "baseline", base_seed=0)
        assert json.dumps(baseline_campaign, sort_keys=True) \
            == json.dumps(replay, sort_keys=True)

    def test_different_seed_changes_the_fault_sequence(self):
        a = run_chaos_scenario("onboard-insecure", baseline_plan(),
                               base_seed=0)
        b = run_chaos_scenario("onboard-insecure", baseline_plan(),
                               base_seed=1)
        assert a["faults"]["byKind"] != b["faults"]["byKind"]

    def test_injector_streams_are_per_kind_and_target(self):
        injector = FaultInjector(baseline_plan(), base_seed=0)
        replay = FaultInjector(baseline_plan(), base_seed=0)
        fired = [injector.fires(FaultKind.IVN_FRAME_DROP, "zonal-can", t)
                 for t in range(8, 20)]
        assert any(fired) and not all(fired)  # probabilistic window
        assert fired == [replay.fires(FaultKind.IVN_FRAME_DROP, "zonal-can", t)
                         for t in range(8, 20)]


class TestCampaignDocument:
    def test_validates_against_the_schema(self, baseline_campaign,
                                          severe_campaign):
        validate_chaos_dict(baseline_campaign)
        validate_chaos_dict(severe_campaign)

    def test_multiple_layers_sustain_faults_with_availability(
            self, baseline_campaign):
        # Acceptance: >= 3 layers saw in-window faults yet kept availability.
        assert len(baseline_campaign["summary"]["layersSustained"]) >= 3
        assert baseline_campaign["summary"]["faultsInjected"] > 0

    def test_unknown_scenario_and_bad_duration_are_rejected(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            run_chaos_scenario("warp-core", baseline_plan())
        with pytest.raises(ValueError, match="duration"):
            run_chaos_scenario("cariad-breach", baseline_plan(), duration=0)


def scenario(campaign, name):
    return next(s for s in campaign["scenarios"] if s["scenario"] == name)


class TestDegradationGates:
    def test_hardened_rides_out_baseline_at_degraded(self, baseline_campaign):
        hardened = scenario(baseline_campaign, "onboard-hardened")
        degradation = hardened["degradation"]
        assert degradation["minLevel"] == "degraded"  # never lower
        assert degradation["finalLevel"] == "full"    # recovered
        assert degradation["timeToDegradeS"] is not None
        assert degradation["timeToRecoverS"] is not None

    def test_hardened_resilience_machinery_actually_ran(
            self, baseline_campaign):
        hardened = scenario(baseline_campaign, "onboard-hardened")
        assert hardened["retry"]["recovered"] > 0
        assert hardened["breakers"][0]["opens"] >= 1
        assert hardened["ssi"]["staleHits"] > 0  # cached DID fallback
        assert hardened["alerts"] >= 1           # IDS isolated the babbler

    def test_insecure_scenarios_hit_the_floor_under_severe(
            self, severe_campaign):
        at_floor = severe_campaign["summary"]["scenariosAtMinimalRiskOrBelow"]
        for name in ("pkes-legacy", "onboard-insecure", "cariad-breach"):
            assert name in at_floor

    def test_resilient_beats_insecure_cloud_availability_under_severe(
            self, severe_campaign):
        maas = scenario(severe_campaign, "maas-platform")
        insecure = scenario(severe_campaign, "cariad-breach")
        maas_cloud = next(e for e in maas["layers"] if e["layer"] == "data")
        bare_cloud = next(e for e in insecure["layers"]
                          if e["layer"] == "data")
        assert maas_cloud["windowAvailability"] \
            >= bare_cloud["windowAvailability"]

    def test_every_scenario_posture_is_reflected_in_the_doc(
            self, baseline_campaign):
        booked = {"phy": "physical", "ivn": "network", "cloud": "data",
                  "ssi": "software_platform"}
        for result in baseline_campaign["scenarios"]:
            record = SCENARIOS[result["scenario"]]
            assert result["resilient"] == record.resilient
            assert [e["layer"] for e in result["layers"]] \
                == [booked[name] for name in record.subsystems]


class TestScenarioWindows:
    def test_window_covers_only_exposed_kinds(self):
        # cariad-breach is cloud-only: its window must hull the cloud
        # faults, not the runner-crash spec at [0, 1).
        result = run_chaos_scenario("cariad-breach", get_plan("baseline"))
        assert result["window"] == {"start": 8.0, "end": 19.0}
