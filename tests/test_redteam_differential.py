"""Differential meta-tests: the three static analyzers must agree.

Parameterized across every shipped scenario — agreement is the
contract, and the negative tests prove the checks can actually fail
(a gate that cannot fire is not a gate).
"""

import pytest

from repro.lint import Analysis, build_scenario, scenario_names
from repro.redteam import differential_violations

ALL_SCENARIOS = ["pkes-legacy", "onboard-insecure", "onboard-hardened",
                 "cariad-breach", "maas-platform"]


class TestAnalyzersAgree:
    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_no_violations_on_shipped_scenario(self, name):
        assert differential_violations(Analysis(build_scenario(name))) == []

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_witness_implies_campaign(self, name):
        """Every FLOW witness sink is planner-reachable."""
        analysis = Analysis(build_scenario(name))
        reachable = analysis.plan.campaign_sinks()
        for sink in analysis.flow.witnesses_by_sink():
            assert sink in reachable, f"{name}: witnessed {sink} unreachable"

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_clean_iff_defeated(self, name):
        analysis = Analysis(build_scenario(name))
        assert analysis.plan.defeated == analysis.flow.path_clean

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_first_hop_is_flow_or_lint_flagged(self, name):
        """Every campaign enters through independently-flagged ground."""
        from repro.flow.rules import FLOW_RULES
        from repro.lint import Linter
        from repro.lint.rules import CATALOG

        target = build_scenario(name)
        analysis = Analysis(target)
        sources = {n.name for n in analysis.flow.graph.sources()}
        report = Linter(list(CATALOG) + list(FLOW_RULES)).run(target)
        texts = [f"{f.subject} {f.message}" for f in report.findings]
        for campaign in analysis.plan.campaigns:
            entry = campaign.entry_node
            assert entry in sources or any(entry in t for t in texts), \
                f"{name}: entry {entry} unflagged"

    def test_differential_gate_sweeps_all(self, run_cli):
        code, out, err = run_cli("redteam", "all", "--differential")
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            f"{name}: analyzers agree (lint/flow/redteam)"
            for name in scenario_names()]


class TestGatesCanFire:
    """Tamper with one analyzer's result and watch the gates trip."""

    def test_missing_campaign_trips_witness_gate(self):
        analysis = Analysis(build_scenario("onboard-insecure"))
        analysis.plan.campaigns.clear()
        violations = differential_violations(analysis)
        assert any(v.startswith("witness=>campaign") for v in violations)

    def test_phantom_campaign_trips_clean_gate(self):
        hardened = Analysis(build_scenario("onboard-hardened"))
        # graft a campaign from an insecure scenario onto the clean one
        stolen = Analysis(build_scenario("pkes-legacy")).plan.campaigns[0]
        hardened.plan.campaigns.append(stolen)
        violations = differential_violations(hardened)
        assert any(v.startswith("clean<=>defeated") for v in violations)

    def test_source_sink_needs_no_witness(self):
        """maas-platform: a sink that is itself an untrusted source gets
        a 1-step campaign with no flow witness — by design, not a bug."""
        analysis = Analysis(build_scenario("maas-platform"))
        witnessed = set(analysis.flow.witnesses_by_sink())
        sources = {n.name for n in analysis.flow.graph.sources()}
        unwitnessed = [c for c in analysis.plan.campaigns
                       if c.sink not in witnessed]
        assert unwitnessed  # the allowance is actually exercised
        for campaign in unwitnessed:
            assert campaign.sink in sources
        assert differential_violations(analysis) == []
