"""Component/interface system model shared by the analysis layers.

A :class:`SystemModel` is a directed graph of :class:`Component` nodes
joined by :class:`Interface` edges.  The data-layer kill chain
(:mod:`repro.datalayer`), the attack-surface metrics, and the
system-of-systems cascade analysis (:mod:`repro.sos`) all operate on this
representation, which is what lets a breach modeled at one layer be traced
into another — the paper's core "holistic, multi-layered" argument (§VIII).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import networkx as nx

from repro.core.layers import Layer
from repro.core.threats import AccessLevel

__all__ = ["Component", "Interface", "SystemModel"]


@dataclass(frozen=True)
class Component:
    """A system element: an ECU, a cloud service, a sensor, a stakeholder system."""

    name: str
    layer: Layer
    criticality: int = 1  # 1 (low) .. 5 (safety-critical)
    exposed: bool = False  # reachable by an external attacker without a foothold
    description: str = ""

    def __post_init__(self) -> None:
        if not 1 <= self.criticality <= 5:
            raise ValueError(f"criticality must be in 1..5, got {self.criticality}")


@dataclass(frozen=True)
class Interface:
    """A directed communication/trust edge between two components."""

    source: str
    target: str
    protocol: str
    access: AccessLevel = AccessLevel.LOCAL_BUS
    authenticated: bool = False
    encrypted: bool = False

    @property
    def secured(self) -> bool:
        """An interface counts as secured when it is at least authenticated."""
        return self.authenticated


class SystemModel:
    """A directed component/interface graph with security annotations."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._graph = nx.DiGraph()
        self._components: dict[str, Component] = {}

    # -- construction ------------------------------------------------------

    def add_component(self, component: Component) -> Component:
        if component.name in self._components:
            raise ValueError(f"duplicate component {component.name!r}")
        self._components[component.name] = component
        self._graph.add_node(component.name)
        return component

    def connect(self, interface: Interface) -> Interface:
        for end in (interface.source, interface.target):
            if end not in self._components:
                raise KeyError(f"unknown component {end!r}")
        self._graph.add_edge(interface.source, interface.target, interface=interface)
        return interface

    # -- queries -----------------------------------------------------------

    def component(self, name: str) -> Component:
        return self._components[name]

    def components(self, layer: Layer | None = None) -> list[Component]:
        items = list(self._components.values())
        if layer is not None:
            items = [c for c in items if c.layer == layer]
        return items

    def interfaces(self) -> Iterator[Interface]:
        for _, _, data in self._graph.edges(data=True):
            yield data["interface"]

    def interfaces_of(self, name: str) -> list[Interface]:
        """All interfaces (in or out) touching a component."""
        out = [d["interface"] for _, _, d in self._graph.out_edges(name, data=True)]
        inc = [d["interface"] for _, _, d in self._graph.in_edges(name, data=True)]
        return out + inc

    def entry_points(self) -> list[Component]:
        """Components an external attacker can reach directly."""
        return [c for c in self._components.values() if c.exposed]

    # -- reachability / attack paths ----------------------------------------

    def reachable_from(self, start: str, *, only_unsecured: bool = False) -> set[str]:
        """Components reachable from ``start`` following interface direction.

        With ``only_unsecured`` the traversal uses only unauthenticated
        interfaces — i.e. the set an attacker can reach without breaking
        any cryptographic protection.
        """
        if start not in self._components:
            raise KeyError(f"unknown component {start!r}")
        if not only_unsecured:
            return set(nx.descendants(self._graph, start)) | {start}
        sub = nx.DiGraph()
        sub.add_nodes_from(self._graph.nodes)
        for u, v, data in self._graph.edges(data=True):
            if not data["interface"].secured:
                sub.add_edge(u, v)
        return set(nx.descendants(sub, start)) | {start}

    def attack_paths(self, source: str, target: str, max_paths: int = 100) -> list[list[str]]:
        """Simple attack paths from ``source`` to ``target`` (bounded count)."""
        if source not in self._components or target not in self._components:
            raise KeyError("unknown component")
        paths = []
        for path in nx.all_simple_paths(self._graph, source, target):
            paths.append(path)
            if len(paths) >= max_paths:
                break
        return paths

    def exposure_of(self, target: str) -> int:
        """Number of entry points from which ``target`` is reachable."""
        return sum(1 for entry in self.entry_points()
                   if target in self.reachable_from(entry.name))
