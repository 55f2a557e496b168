"""Tests for the probabilistic attack-graph analyzer."""

import pytest

from repro.core.attackgraph import AttackGraph, default_hop_probability
from repro.core.entities import Component, Interface, SystemModel
from repro.core.layers import Layer
from repro.core.threats import AccessLevel


def diamond_model(*, secure_upper=False):
    """entry -> {a, b} -> target; the upper path optionally authenticated."""
    model = SystemModel("diamond")
    for name, exposed in (("entry", True), ("a", False), ("b", False),
                          ("target", False)):
        model.add_component(Component(name, Layer.NETWORK, criticality=3,
                                      exposed=exposed))
    model.connect(Interface("entry", "a", "eth", authenticated=secure_upper))
    model.connect(Interface("a", "target", "eth", authenticated=secure_upper))
    model.connect(Interface("entry", "b", "eth"))
    model.connect(Interface("b", "target", "eth"))
    return model


class TestHopProbability:
    def test_authentication_lowers_probability(self):
        open_if = Interface("a", "b", "eth")
        auth_if = Interface("a", "b", "eth", authenticated=True)
        enc_if = Interface("a", "b", "eth", authenticated=True, encrypted=True)
        assert (default_hop_probability(enc_if)
                < default_hop_probability(auth_if)
                < default_hop_probability(open_if))

    def test_access_level_scales(self):
        remote = Interface("a", "b", "eth", AccessLevel.REMOTE)
        physical = Interface("a", "b", "eth", AccessLevel.PHYSICAL)
        assert default_hop_probability(physical) < default_hop_probability(remote)


class TestPaths:
    def test_most_likely_path_found(self):
        graph = AttackGraph(diamond_model())
        path = graph.most_likely_path("target")
        assert path is not None
        assert path.nodes[0] == "entry"
        assert path.nodes[-1] == "target"
        assert 0.0 < path.probability <= 1.0

    def test_path_prefers_unsecured_route(self):
        graph = AttackGraph(diamond_model(secure_upper=True))
        path = graph.most_likely_path("target")
        assert "b" in path.nodes  # the open lower route wins

    def test_probability_is_product_of_hops(self):
        graph = AttackGraph(diamond_model())
        path = graph.most_likely_path("target")
        # Two unauthenticated local-bus hops: (0.8 * 0.6)^2.
        assert path.probability == pytest.approx((0.8 * 0.6) ** 2, rel=1e-6)

    def test_unreachable_target(self):
        model = diamond_model()
        model.add_component(Component("island", Layer.NETWORK))
        graph = AttackGraph(model)
        assert graph.most_likely_path("island") is None

    def test_target_is_entry(self):
        graph = AttackGraph(diamond_model())
        path = graph.most_likely_path("entry", source="entry")
        assert path.probability == 1.0
        assert path.hops == 0

    def test_top_paths_sorted(self):
        graph = AttackGraph(diamond_model(secure_upper=True))
        paths = graph.top_paths("target", k=3)
        assert len(paths) == 2  # both diamond branches
        probs = [p.probability for p in paths]
        assert probs == sorted(probs, reverse=True)


class TestCompromiseProbability:
    def test_redundant_paths_raise_probability(self):
        graph = AttackGraph(diamond_model())
        single = graph.most_likely_path("target").probability
        combined = graph.compromise_probability("target")
        assert combined > single

    def test_hardening_lowers_probability(self):
        open_p = AttackGraph(diamond_model()).compromise_probability("target")
        hardened_p = AttackGraph(
            diamond_model(secure_upper=True)).compromise_probability("target")
        assert hardened_p < open_p


class TestHardeningCut:
    def test_cut_disconnects_target(self):
        model = diamond_model()
        graph = AttackGraph(model)
        cut = graph.minimal_hardening_cut("target")
        assert cut  # something must be hardened
        assert len(cut) <= 2
        # Securing (removing) the cut edges must break reachability.
        import networkx as nx

        g = graph._graph.copy()
        g.remove_edges_from(cut)
        assert not nx.has_path(g, "entry", "target")

    def test_bottleneck_preferred(self):
        # entry -> hub -> {x, y} -> target: the single hub edge is the cut.
        model = SystemModel("bottleneck")
        for name, exposed in (("entry", True), ("hub", False), ("x", False),
                              ("y", False), ("target", False)):
            model.add_component(Component(name, Layer.NETWORK, exposed=exposed))
        model.connect(Interface("entry", "hub", "eth"))
        model.connect(Interface("hub", "x", "eth"))
        model.connect(Interface("hub", "y", "eth"))
        model.connect(Interface("x", "target", "eth"))
        model.connect(Interface("y", "target", "eth"))
        cut = AttackGraph(model).minimal_hardening_cut("target")
        assert cut == {("entry", "hub")}

    def test_tie_between_equal_cuts_goes_to_the_edge_nearest_the_sink(self):
        # entry -> a -> b -> target has three unit min cuts; the rule is
        # networkx's: the source side is every node that cannot reach the
        # sink in the residual graph, so the cut sits next to the sink.
        # Any replacement min-cut kernel must keep this choice, or every
        # report that prints a hardening cut changes.
        model = SystemModel("chain")
        for name, exposed in (("entry", True), ("a", False), ("b", False),
                              ("target", False)):
            model.add_component(Component(name, Layer.NETWORK, exposed=exposed))
        for src, dst in (("entry", "a"), ("a", "b"), ("b", "target")):
            model.connect(Interface(src, dst, "eth"))
        cut = AttackGraph(model).minimal_hardening_cut("target")
        assert cut == {("b", "target")}

    def test_no_entry_points_empty_cut(self):
        model = SystemModel("no-entry")
        model.add_component(Component("a", Layer.NETWORK))
        model.add_component(Component("t", Layer.NETWORK))
        model.connect(Interface("a", "t", "eth"))
        assert AttackGraph(model).minimal_hardening_cut("t") == set()

    def test_unknown_target(self):
        with pytest.raises(KeyError):
            AttackGraph(diamond_model()).minimal_hardening_cut("ghost")


class TestOnMaasModel:
    def test_safety_functions_attack_path(self):
        from repro.sos.maas import build_maas_sos

        model = build_maas_sos().to_system_model()
        graph = AttackGraph(model)
        path = graph.most_likely_path("safety-functions")
        assert path is not None
        cut = graph.minimal_hardening_cut("safety-functions")
        assert cut
        # Hardening the full interface set must beat the open model.
        secured = build_maas_sos(secured_interfaces=True).to_system_model()
        assert (AttackGraph(secured).compromise_probability("safety-functions")
                < graph.compromise_probability("safety-functions"))
