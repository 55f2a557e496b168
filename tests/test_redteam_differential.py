"""Differential meta-tests: the three static analyzers must agree.

Parameterized across every shipped scenario — agreement is the
contract, and the negative tests prove the checks can actually fail
(a gate that cannot fire is not a gate).
"""

import pytest

from repro.flow import analyze
from repro.lint import build_scenario
from repro.redteam import (differential_violations, plan, plan_scenario,
                           run_differential)

ALL_SCENARIOS = ["pkes-legacy", "onboard-insecure", "onboard-hardened",
                 "cariad-breach", "maas-platform"]


class TestAnalyzersAgree:
    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_no_violations_on_shipped_scenario(self, name):
        target = build_scenario(name)
        flow = analyze(target)
        assert differential_violations(target, flow, plan(target, flow)) == []

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_witness_implies_campaign(self, name):
        """Every FLOW witness sink is planner-reachable."""
        target = build_scenario(name)
        flow = analyze(target)
        planned = plan(target, flow)
        reachable = planned.campaign_sinks()
        for sink in flow.witnesses_by_sink():
            assert sink in reachable, f"{name}: witnessed {sink} unreachable"

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_clean_iff_defeated(self, name):
        target = build_scenario(name)
        flow = analyze(target)
        planned = plan(target, flow)
        if flow.path_clean:
            assert planned.defeated
        else:
            assert not planned.defeated

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_first_hop_is_flow_or_lint_flagged(self, name):
        """Every campaign enters through independently-flagged ground."""
        from repro.flow.rules import FLOW_RULES
        from repro.lint import Linter
        from repro.lint.rules import CATALOG

        target = build_scenario(name)
        flow = analyze(target)
        planned = plan(target, flow)
        sources = {n.name for n in flow.graph.sources()}
        report = Linter(list(CATALOG) + list(FLOW_RULES)).run(target)
        texts = [f"{f.subject} {f.message}" for f in report.findings]
        for campaign in planned.campaigns:
            entry = campaign.entry_node
            assert entry in sources or any(entry in t for t in texts), \
                f"{name}: entry {entry} unflagged"

    def test_run_differential_sweeps_all(self):
        violations = run_differential(ALL_SCENARIOS)
        assert set(violations) == set(ALL_SCENARIOS)
        assert all(v == [] for v in violations.values())


class TestGatesCanFire:
    """Tamper with one analyzer's result and watch the gates trip."""

    def test_missing_campaign_trips_witness_gate(self):
        target = build_scenario("onboard-insecure")
        flow = analyze(target)
        planned = plan(target, flow)
        planned.campaigns.clear()
        violations = differential_violations(target, flow, planned)
        assert any(v.startswith("witness=>campaign") for v in violations)

    def test_phantom_campaign_trips_clean_gate(self):
        hardened = build_scenario("onboard-hardened")
        hardened_flow = analyze(hardened)
        hardened_plan = plan(hardened, hardened_flow)
        # graft a campaign from an insecure scenario onto the clean one
        stolen = plan_scenario("pkes-legacy").campaigns[0]
        hardened_plan.campaigns.append(stolen)
        violations = differential_violations(hardened, hardened_flow,
                                             hardened_plan)
        assert any(v.startswith("clean<=>defeated") for v in violations)

    def test_source_sink_needs_no_witness(self):
        """maas-platform: a sink that is itself an untrusted source gets
        a 1-step campaign with no flow witness — by design, not a bug."""
        target = build_scenario("maas-platform")
        flow = analyze(target)
        planned = plan(target, flow)
        witnessed = set(flow.witnesses_by_sink())
        sources = {n.name for n in flow.graph.sources()}
        unwitnessed = [c for c in planned.campaigns
                       if c.sink not in witnessed]
        assert unwitnessed  # the allowance is actually exercised
        for campaign in unwitnessed:
            assert campaign.sink in sources
        assert differential_violations(target, flow, planned) == []
