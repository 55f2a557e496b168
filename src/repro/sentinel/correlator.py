"""Cross-layer cascade correlation: co-occurring alarms become incidents.

A multi-stage campaign (the red-team planner's bread and butter) shows
up to the detectors as *separate* alarms on different layers — a cloud
outage here, a bus storm there.  The :class:`CascadeCorrelator` knows
the scenario's :mod:`repro.flow` graph: when two alarmed sources sit
within ``max_hops`` of each other along data-flow edges (undirected —
cascades propagate both with and against the arrows), their alarms are
the *same* incident, promoted to campaign level instead of paged twice.

Telemetry source names (bus names, service names, anchor ids) rarely
match flow-graph node names exactly, so the correlator takes an
*anchors* map from telemetry source to the nearest graph node; sources
without an anchor (or anchored to a node absent from this scenario's
graph) still form singleton incidents.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.flow.graph import FlowGraph

__all__ = ["Incident", "CascadeCorrelator"]


class Incident:
    """One campaign-level incident: correlated alarms across sources."""

    def __init__(self, incident_id: int, opened_t: float, source: str,
                 detector: str) -> None:
        self.incident_id = incident_id
        self.opened_t = opened_t
        self.closed_t: float | None = None
        self.sources: set[str] = {source}
        self.alarms: list[tuple[float, str, str]] = [(opened_t, source, detector)]

    @property
    def open(self) -> bool:
        return self.closed_t is None

    def record(self, t: float, source: str, detector: str) -> None:
        self.sources.add(source)
        self.alarms.append((t, source, detector))

    def to_dict(self) -> dict:
        return {
            "id": self.incident_id,
            "openedT": self.opened_t,
            "closedT": self.closed_t,
            "sources": sorted(self.sources),
            "alarmCount": len(self.alarms),
            "crossLayer": len(self.sources) > 1,
        }


class CascadeCorrelator:
    """Promote co-occurring, flow-adjacent alarms into incidents."""

    def __init__(self, adjacency: dict[str, set[str]] | None = None, *,
                 join_window_s: float = 8.0) -> None:
        self.adjacency = {k: set(v) for k, v in (adjacency or {}).items()}
        self.join_window_s = join_window_s
        self.incidents: list[Incident] = []
        self.open_count = 0
        self._last_alarm_t: dict[int, float] = {}

    @classmethod
    def from_flow_graph(cls, graph: "FlowGraph", anchors: dict[str, str], *,
                        max_hops: int = 2,
                        join_window_s: float = 8.0) -> "CascadeCorrelator":
        """Build source-level adjacency from a scenario's flow graph.

        Two telemetry sources are adjacent when their anchor nodes lie
        within ``max_hops`` undirected flow-graph hops of each other.
        """
        neighbors: dict[str, set[str]] = {}
        for edge in graph.edges():
            neighbors.setdefault(edge.src, set()).add(edge.dst)
            neighbors.setdefault(edge.dst, set()).add(edge.src)

        def within(start: str, budget: int) -> set[str]:
            seen = {start}
            frontier: deque[tuple[str, int]] = deque([(start, 0)])
            while frontier:
                node, hops = frontier.popleft()
                if hops == budget:
                    continue
                for nxt in neighbors.get(node, ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append((nxt, hops + 1))
            return seen

        anchored = {src: node for src, node in anchors.items() if node in graph}
        reach = {src: within(node, max_hops) for src, node in anchored.items()}
        adjacency: dict[str, set[str]] = {src: set() for src in anchors}
        for a, nodes_a in reach.items():
            for b, node_b in anchored.items():
                if a != b and node_b in nodes_a:
                    adjacency[a].add(b)
        return cls(adjacency, join_window_s=join_window_s)

    def related(self, a: str, b: str) -> bool:
        """Same source, or flow-adjacent within the hop budget."""
        return a == b or b in self.adjacency.get(a, ()) or \
            a in self.adjacency.get(b, ())

    def on_alarm(self, t: float, source: str,
                 detector: str) -> tuple[Incident, str]:
        """Record one machine entering ALARM; returns (incident, action).

        ``action`` is ``"opened"`` for a fresh incident or ``"joined"``
        when the alarm correlated into an open one (recent enough and
        flow-adjacent to a member source).
        """
        for incident in self.incidents:
            if not incident.open:
                continue
            recent = t - self._last_alarm_t[incident.incident_id] <= self.join_window_s
            if recent and any(self.related(source, member)
                              for member in incident.sources):
                incident.record(t, source, detector)
                self._last_alarm_t[incident.incident_id] = t
                return incident, "joined"
        incident = Incident(len(self.incidents) + 1, t, source, detector)
        self.incidents.append(incident)
        self.open_count += 1
        self._last_alarm_t[incident.incident_id] = t
        return incident, "opened"

    def on_all_clear(self, t: float, cleared: set[str]) -> list[Incident]:
        """Close every open incident whose sources have all cleared."""
        closed = []
        for incident in self.incidents:
            if incident.open and incident.sources <= cleared:
                incident.closed_t = t
                closed.append(incident)
        self.open_count -= len(closed)
        return closed

    def open_incidents(self) -> list[Incident]:
        return [incident for incident in self.incidents if incident.open]

    def to_dict(self) -> list[dict]:
        return [incident.to_dict() for incident in self.incidents]
