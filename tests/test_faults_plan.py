"""Fault taxonomy, spec validation, and the shipped campaign plans."""

import pytest

from repro.core.layers import Layer
from repro.faults.plan import (
    KIND_LAYER,
    FaultKind,
    FaultPlan,
    FaultSpec,
    baseline_plan,
    get_plan,
    plan_names,
    severe_plan,
)


class TestFaultSpec:
    def test_window_is_half_open(self):
        spec = FaultSpec(FaultKind.IVN_FRAME_DROP, "zonal-can", 2.0, 5.0)
        assert not spec.active(1.9)
        assert spec.active(2.0)
        assert spec.active(4.9)
        assert not spec.active(5.0)

    def test_degenerate_window_rejected(self):
        with pytest.raises(ValueError, match="start < end"):
            FaultSpec(FaultKind.IVN_FRAME_DROP, "zonal-can", 5.0, 5.0)

    def test_probability_bounds_enforced(self):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(FaultKind.CLOUD_OUTAGE, "backend", 0.0, 1.0,
                      probability=1.5)

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ValueError, match="magnitude"):
            FaultSpec(FaultKind.CLOUD_OUTAGE, "backend", 0.0, 1.0,
                      magnitude=-0.1)

    def test_to_dict_carries_the_paper_layer(self):
        spec = FaultSpec(FaultKind.SSI_REGISTRY_DOWN, "did-registry", 0.0, 4.0)
        doc = spec.to_dict()
        assert doc["layer"] == "software_platform"
        assert doc["kind"] == "ssi-registry-unavailable"
        assert set(doc) == {"kind", "target", "layer", "start", "end",
                            "probability", "magnitude"}


class TestFaultPlan:
    def test_needs_a_name(self):
        with pytest.raises(ValueError, match="name"):
            FaultPlan("", ())

    def test_window_is_the_hull_over_specs(self):
        plan = FaultPlan("p", (
            FaultSpec(FaultKind.IVN_FRAME_DROP, "a", 3.0, 7.0),
            FaultSpec(FaultKind.CLOUD_OUTAGE, "b", 1.0, 5.0),
        ))
        assert plan.window() == (1.0, 7.0)
        assert FaultPlan("empty", ()).window() == (0.0, 0.0)

    def test_for_kind_filters(self):
        plan = baseline_plan()
        drops = plan.for_kind(FaultKind.IVN_FRAME_DROP)
        assert len(drops) == 1 and drops[0].target == "zonal-can"


class TestShippedPlans:
    def test_registry_round_trip(self):
        assert plan_names() == ["baseline", "severe"]
        assert get_plan("baseline").name == "baseline"
        with pytest.raises(KeyError, match="unknown fault plan"):
            get_plan("apocalypse")

    def test_every_kind_has_a_layer(self):
        assert set(KIND_LAYER) == set(FaultKind)

    def test_plans_cover_every_paper_layer_with_faults(self):
        for plan in (baseline_plan(), severe_plan()):
            layers = {KIND_LAYER[spec.kind] for spec in plan.specs}
            assert layers == {Layer.PHYSICAL, Layer.NETWORK, Layer.DATA,
                              Layer.SOFTWARE_PLATFORM,
                              Layer.SYSTEM_OF_SYSTEMS}

    def test_severe_is_strictly_wider_than_baseline(self):
        base_start, base_end = baseline_plan().window()
        sev_start, sev_end = severe_plan().window()
        assert sev_end - sev_start > base_end - base_start
