"""Shard/campaign specs: validation, identity, matrix construction."""

import pytest

from repro.campaign import CampaignSpec, CampaignTool, ShardSpec


class TestShardSpec:
    def test_plan_tool_shard_round_trips(self):
        shard = ShardSpec(tool=CampaignTool.CHAOS, scenario="pkes-legacy",
                          plan="baseline", seed=3, duration=30)
        assert shard.shard_id == "chaos/pkes-legacy/baseline/s3"
        assert ShardSpec.from_dict(shard.to_dict()) == shard

    def test_static_tool_shard_round_trips(self):
        shard = ShardSpec(tool=CampaignTool.LINT, scenario="maas-platform",
                          seed=1)
        assert shard.shard_id == "lint/maas-platform/-/s1"
        assert shard.plan == "-" and shard.duration == 0
        assert ShardSpec.from_dict(shard.to_dict()) == shard

    def test_plan_tools_require_plan_and_duration(self):
        with pytest.raises(ValueError, match="fault plan"):
            ShardSpec(tool=CampaignTool.SENTINEL, scenario="pkes-legacy")
        with pytest.raises(ValueError, match="duration"):
            ShardSpec(tool=CampaignTool.CHAOS, scenario="pkes-legacy",
                      plan="baseline", duration=0)

    def test_static_tools_reject_plan_and_duration(self):
        with pytest.raises(ValueError, match="static"):
            ShardSpec(tool=CampaignTool.LINT, scenario="pkes-legacy",
                      plan="baseline")
        with pytest.raises(ValueError, match="static"):
            ShardSpec(tool=CampaignTool.FLOW, scenario="pkes-legacy",
                      duration=5)

    def test_basic_field_validation(self):
        with pytest.raises(ValueError, match="scenario"):
            ShardSpec(tool=CampaignTool.LINT, scenario="")
        with pytest.raises(ValueError, match="seed"):
            ShardSpec(tool=CampaignTool.LINT, scenario="x", seed=-1)

    def test_from_dict_rejects_mismatched_id(self):
        entry = ShardSpec(tool=CampaignTool.LINT, scenario="x").to_dict()
        entry["id"] = "lint/other/-/s0"
        with pytest.raises(ValueError, match="does not match"):
            ShardSpec.from_dict(entry)

    def test_from_dict_rejects_unknown_tool(self):
        entry = ShardSpec(tool=CampaignTool.LINT, scenario="x").to_dict()
        entry["tool"] = "fuzzer"
        with pytest.raises(ValueError, match="tool"):
            ShardSpec.from_dict(entry)


class TestCampaignSpec:
    def matrix(self, **kwargs):
        kwargs.setdefault("tools", ["chaos", "lint"])
        kwargs.setdefault("scenarios", ["pkes-legacy", "onboard-insecure"])
        kwargs.setdefault("plans", ["baseline", "severe"])
        kwargs.setdefault("seeds", [0, 1])
        return CampaignSpec.matrix(**kwargs)

    def test_matrix_cross_product_and_plan_collapse(self):
        spec = self.matrix()
        # chaos: 2 scenarios x 2 plans x 2 seeds; lint: 2 x 2 (no plans)
        assert len(spec) == 8 + 4
        ids = [shard.shard_id for shard in spec.shards]
        assert ids == sorted(ids) and len(set(ids)) == len(ids)
        lint = [s for s in spec.shards if s.tool is CampaignTool.LINT]
        assert all(s.plan == "-" and s.duration == 0 for s in lint)

    def test_campaign_id_is_content_derived_and_stable(self):
        assert self.matrix().campaign_id == self.matrix().campaign_id
        assert self.matrix().campaign_id != \
            self.matrix(seeds=[0, 2]).campaign_id
        assert self.matrix(name="nightly").campaign_id == "nightly"

    def test_round_trip_and_id_check(self):
        spec = self.matrix()
        assert CampaignSpec.from_dict(spec.to_dict()).to_dict() == \
            spec.to_dict()
        entry = spec.to_dict()
        entry["id"] = "somethingelse"
        with pytest.raises(ValueError, match="does not match"):
            CampaignSpec.from_dict(entry)

    def test_shard_lookup(self):
        spec = self.matrix()
        shard = spec.shard("lint/pkes-legacy/-/s0")
        assert shard.scenario == "pkes-legacy"
        with pytest.raises(KeyError):
            spec.shard("lint/nope/-/s0")

    def test_shard_lookup_agrees_with_a_scan(self):
        spec = self.matrix(tools=[tool.value for tool in CampaignTool],
                           scenarios=["pkes-legacy", "onboard-insecure", "maas-platform"],
                           seeds=[0, 1, 2])
        for shard_id in (shard.shard_id for shard in spec.shards):
            scanned = next(s for s in spec.shards if s.shard_id == shard_id)
            assert spec.shard(shard_id) is scanned
        assert spec == self.matrix(tools=[tool.value for tool in CampaignTool],
                                   scenarios=["pkes-legacy", "onboard-insecure",
                                              "maas-platform"], seeds=[0, 1, 2])
        with pytest.raises(KeyError, match="unknown shard"):
            spec.shard("experiment/FIG1/-/s0")

    def test_rejects_duplicates_and_unsorted(self):
        a = ShardSpec(tool=CampaignTool.LINT, scenario="a")
        b = ShardSpec(tool=CampaignTool.LINT, scenario="b")
        with pytest.raises(ValueError, match="duplicate"):
            CampaignSpec(shards=(a, a))
        with pytest.raises(ValueError, match="sorted"):
            CampaignSpec(shards=(b, a))
        with pytest.raises(ValueError, match="at least one"):
            CampaignSpec(shards=())

    def test_matrix_validates_axes(self):
        with pytest.raises(ValueError, match="scenario"):
            self.matrix(scenarios=[])
        with pytest.raises(ValueError, match="plan"):
            self.matrix(plans=[])
        with pytest.raises(ValueError, match="seed"):
            self.matrix(seeds=[])
        with pytest.raises(ValueError, match="tool"):
            self.matrix(tools=[])
