"""Probabilistic attack-graph analysis over system models (paper §V-C).

"By taking away features and options that are not strictly needed, we
enable a better understanding of possible misuse and even **the ability
to reason formally about security properties**."

This module provides that formal reasoning over the
:class:`~repro.core.entities.SystemModel` graph:

* every interface gets a per-hop **compromise probability** (derived
  from its authentication state and access level, or supplied
  explicitly);
* :meth:`AttackGraph.most_likely_path` — the maximum-probability attack
  path from any entry point to a target (Dijkstra on -log p);
* :meth:`AttackGraph.compromise_probability` — an upper bound on the
  probability the target falls (noisy-OR over disjoint-ish paths,
  documented approximation);
* :meth:`AttackGraph.minimal_hardening_cut` — the smallest set of
  interfaces whose securing disconnects every entry point from the
  target (a min-vertex/edge-cut via networkx max-flow), i.e. *where to
  spend the hardening budget*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import networkx as nx

from repro.core.entities import Interface, SystemModel
from repro.core.threats import AccessLevel

__all__ = ["AttackGraph", "AttackPath"]

#: Default per-hop compromise probabilities by interface state.
_P_UNAUTHENTICATED = 0.8
_P_AUTHENTICATED = 0.1
_P_AUTH_ENCRYPTED = 0.03

#: Access-level difficulty scales feasibility further.
_ACCESS_FACTOR = {
    AccessLevel.REMOTE: 1.0,
    AccessLevel.ADJACENT: 0.8,
    AccessLevel.LOCAL_BUS: 0.6,
    AccessLevel.PHYSICAL: 0.3,
    AccessLevel.INSIDER: 0.9,
}


def default_hop_probability(interface: Interface) -> float:
    """Per-hop compromise probability from the interface's properties."""
    if not interface.authenticated:
        base = _P_UNAUTHENTICATED
    elif interface.encrypted:
        base = _P_AUTH_ENCRYPTED
    else:
        base = _P_AUTHENTICATED
    return base * _ACCESS_FACTOR[interface.access]


@dataclass(frozen=True)
class AttackPath:
    """One attack path with its success probability."""

    nodes: tuple[str, ...]
    probability: float

    @property
    def hops(self) -> int:
        return len(self.nodes) - 1


class AttackGraph:
    """Quantitative attack-path reasoning over a system model."""

    def __init__(self, model: SystemModel,
                 hop_probability=default_hop_probability) -> None:
        self.model = model
        self._graph = nx.DiGraph()
        self._graph.add_nodes_from(c.name for c in model.components())
        for interface in model.interfaces():
            p = hop_probability(interface)
            if not 0.0 < p <= 1.0:
                raise ValueError(f"hop probability must be in (0, 1], got {p}")
            # Keep the most probable parallel edge.
            existing = self._graph.get_edge_data(interface.source, interface.target)
            if existing is None or existing["p"] < p:
                self._graph.add_edge(interface.source, interface.target,
                                     p=p, weight=-math.log(p))

    def most_likely_path(self, target: str,
                         source: str | None = None) -> AttackPath | None:
        """Highest-probability path from an entry point to ``target``.

        With ``source=None`` all entry points compete. Returns None when
        the target is unreachable.
        """
        sources = ([source] if source is not None
                   else [c.name for c in self.model.entry_points()])
        best: AttackPath | None = None
        for start in sources:
            if start == target:
                return AttackPath((target,), 1.0)
            try:
                nodes = nx.shortest_path(self._graph, start, target, weight="weight")
            except (nx.NetworkXNoPath, nx.NodeNotFound):
                continue
            probability = math.exp(-nx.path_weight(self._graph, nodes, "weight"))
            if best is None or probability > best.probability:
                best = AttackPath(tuple(nodes), probability)
        return best

    def top_paths(self, target: str, k: int = 5) -> list[AttackPath]:
        """The ``k`` most probable simple paths from any entry point."""
        paths: list[AttackPath] = []
        for entry in self.model.entry_points():
            if entry.name == target:
                continue
            try:
                generator = nx.shortest_simple_paths(
                    self._graph, entry.name, target, weight="weight")
                for i, nodes in enumerate(generator):
                    if i >= k:
                        break
                    probability = math.exp(
                        -nx.path_weight(self._graph, nodes, "weight"))
                    paths.append(AttackPath(tuple(nodes), probability))
            except (nx.NetworkXNoPath, nx.NodeNotFound):
                continue
        paths.sort(key=lambda p: -p.probability)
        return paths[:k]

    def compromise_probability(self, target: str, *, k_paths: int = 5) -> float:
        """Noisy-OR over the top-k paths: 1 - prod(1 - p_i).

        An upper-bound style estimate (paths share edges, so true joint
        probability is lower); adequate for ranking targets and for
        before/after hardening comparisons.
        """
        paths = self.top_paths(target, k=k_paths)
        survive = 1.0
        for path in paths:
            survive *= 1.0 - path.probability
        return 1.0 - survive

    def minimal_hardening_cut(self, target: str, *,
                              sources: Iterable[str] | None = None) -> set[tuple[str, str]]:
        """Smallest interface set disconnecting all entry points from ``target``.

        Classic min-cut: add a super-source over the entry points, unit
        capacities (we minimize the *count* of interfaces to harden),
        then max-flow/min-cut.  ``sources`` restricts the entry set (the
        flow analyzer passes only the *tainted* sources that actually
        reach the sink); the default is every exposed component.

        Ties between equally small cuts go to the cut nearest the sink:
        the source side is every node that *cannot reach the sink* in
        the residual graph (networkx's partition), so on a chain
        ``entry -> a -> b -> target`` the cut is ``{("b", "target")}``.
        Reports print the cut, so a replacement kernel must keep this
        rule.
        """
        known = {c.name for c in self.model.components()}
        if target not in known:
            raise KeyError(f"unknown component {target!r}")
        if sources is None:
            entries = [c.name for c in self.model.entry_points()]
        else:
            entries = list(sources)
            for name in entries:
                if name not in known:
                    raise KeyError(f"unknown source {name!r}")
        flow = nx.DiGraph()
        flow.add_nodes_from(self._graph.nodes)
        for u, v in self._graph.edges:
            flow.add_edge(u, v, capacity=1.0)
        super_source = "__entry__"
        for entry in entries:
            if entry != target:
                flow.add_edge(super_source, entry, capacity=float("inf"))
        if super_source not in flow or flow.out_degree(super_source) == 0:
            return set()
        cut_value, (reachable, _) = nx.minimum_cut(flow, super_source, target)
        if math.isinf(cut_value):
            return set()
        return {
            (u, v) for u, v in self._graph.edges
            if u in reachable and v not in reachable
        }
