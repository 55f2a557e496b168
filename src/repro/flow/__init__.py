"""repro.flow — static cross-layer taint/reachability analysis (§V-C, §VIII).

Compiles a whole configured system (the lint layer's
:class:`~repro.lint.target.AnalysisTarget`) into one unified flow graph
and proves — or refutes — that untrusted entry points cannot reach
safety-critical ECUs or personal-data stores.  Every violation carries
a hop-by-hop **path witness** naming the missing boundary on each hop,
plus a minimal **hardening cut** computed through the attack-graph
min-cut machinery.

Findings surface in two equivalent ways:

* programmatically — :func:`analyze` returns a
  :class:`~repro.flow.taint.FlowResult`;
* through the linter — the ``FLOW001``–``FLOW004`` rules are part of
  the shared lint catalog, so baselines, JSON reports, SARIF export,
  and CI gates all apply unchanged.
"""

from typing import TYPE_CHECKING

from repro.flow.graph import (
    FlowEdge,
    FlowGraph,
    FlowNode,
    Protection,
    build_flow_graph,
)
from repro.flow.render import render_cut, render_summary, render_witnesses
from repro.flow.rules import FLOW_RULES
from repro.flow.taint import analyze, propagate_taint

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.lint.engine import Linter

__all__ = [
    "Protection",
    "FlowNode",
    "FlowEdge",
    "FlowGraph",
    "build_flow_graph",
    "analyze",
    "propagate_taint",
    "FLOW_RULES",
    "flow_linter",
    "render_summary",
    "render_witnesses",
    "render_cut",
]


def flow_linter() -> "Linter":
    """A :class:`~repro.lint.engine.Linter` running only the FLOW rules."""
    from repro.lint.engine import Linter

    return Linter(FLOW_RULES)
