"""Taint propagation with path witnesses and hardening cuts.

Taint starts on every untrusted source node (exposed components, public
cloud endpoints, unresolvable DIDs, unsigned V2X channels) and crosses
every non-blocking edge of the :class:`~repro.flow.graph.FlowGraph`.
The fixpoint is a multi-source BFS, so each tainted node remembers its
*shortest* offending path — the witness a human reads hop by hop, each
hop naming the boundary that is missing or void.

For every reached sink the analyzer also computes where to spend the
hardening budget: the open subgraph is exported once per analysis as a
derived :class:`~repro.core.entities.SystemModel` and
:meth:`~repro.core.attackgraph.AttackGraph.minimal_hardening_cut` finds
the smallest edge set whose securing disconnects the tainted sources
from that sink.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.core.attackgraph import AttackGraph

from repro.flow.graph import FlowEdge, FlowGraph, build_flow_graph
from repro.lint.target import AnalysisTarget

__all__ = ["PathWitness", "FlowResult", "propagate_taint", "analyze"]


@dataclass(frozen=True)
class PathWitness:
    """One proved source→sink flow, hop by hop."""

    source: str
    sink: str
    hops: tuple[FlowEdge, ...]

    @property
    def nodes(self) -> tuple[str, ...]:
        return (self.source,) + tuple(edge.dst for edge in self.hops)

    def describe(self) -> list[str]:
        """Human-readable hop lines: ``src -> dst: missing boundary``."""
        return [f"{edge.src} -> {edge.dst}: {edge.missing_boundary}"
                for edge in self.hops]


@dataclass
class FlowResult:
    """Everything the taint analysis proved about one target."""

    target_name: str
    graph: FlowGraph
    #: node name -> the edge that first tainted it (None for sources).
    tainted: dict[str, FlowEdge | None]
    witnesses: list[PathWitness] = field(default_factory=list)
    #: sink name -> the minimal edge set to cut (may be empty when the
    #: sink is itself a source).
    cuts: dict[str, set[tuple[str, str]]] = field(default_factory=dict)

    @property
    def path_clean(self) -> bool:
        """True when no untrusted source reaches any sink."""
        return not self.witnesses

    def witness_for(self, sink: str) -> PathWitness | None:
        for witness in self.witnesses:
            if witness.sink == sink:
                return witness
        return None

    def witnesses_by_sink(self) -> dict[str, PathWitness]:
        """Sink name -> its shortest witness — the planner's seed goals.

        Every key here is an obligation on :mod:`repro.redteam`: the
        first differential gate demands a planner-reachable campaign
        for each witnessed sink.
        """
        mapping: dict[str, PathWitness] = {}
        for witness in self.witnesses:
            mapping.setdefault(witness.sink, witness)
        return mapping


def propagate_taint(graph: FlowGraph) -> dict[str, FlowEdge | None]:
    """Multi-source BFS over open edges; returns parent pointers.

    Sources map to ``None``; every other tainted node maps to the edge
    through which the taint *first* arrived (shortest hop count, ties
    broken by sorted edge order — fully deterministic).
    """
    tainted: dict[str, FlowEdge | None] = {}
    queue: deque[str] = deque()
    for node in sorted(graph.sources(), key=lambda n: n.name):
        tainted[node.name] = None
        queue.append(node.name)
    while queue:
        current = queue.popleft()
        edges = sorted(graph.out_edges(current), key=lambda e: (e.dst, e.kind))
        for edge in edges:
            if edge.blocking or edge.dst in tainted:
                continue
            tainted[edge.dst] = edge
            queue.append(edge.dst)
    return tainted


def _witness(graph: FlowGraph, tainted: dict[str, FlowEdge | None],
             sink: str) -> PathWitness | None:
    """Rebuild the shortest witness by walking parent pointers."""
    if sink not in tainted:
        return None
    hops: list[FlowEdge] = []
    current = sink
    while True:
        parent = tainted[current]
        if parent is None:
            break
        hops.append(parent)
        current = parent.src
    if not hops:
        return None  # the sink is itself a source; nothing flowed *to* it
    hops.reverse()
    return PathWitness(source=hops[0].src, sink=sink, hops=tuple(hops))


def analyze(target: AnalysisTarget) -> FlowResult:
    """Full pipeline: build the graph, taint it, witness every sink, and
    cut each witnessed sink off the tainted sources."""
    graph = build_flow_graph(target)
    tainted = propagate_taint(graph)
    result = FlowResult(target.name, graph, tainted)
    for sink in sorted(graph.sinks(), key=lambda n: n.name):
        witness = _witness(graph, tainted, sink.name)
        if witness is not None:
            result.witnesses.append(witness)
    if result.witnesses:
        attack = AttackGraph(graph.to_system_model())
        sources = sorted(name for name, parent in tainted.items()
                         if parent is None)
        for witness in result.witnesses:
            result.cuts[witness.sink] = attack.minimal_hardening_cut(
                witness.sink, sources=sources)
    return result
