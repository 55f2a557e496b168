"""Plain-text renderers for flow-analysis results (CLI output).

``repro flow --json``/``--sarif`` emit the lint-family documents
(:mod:`repro.lint.report`, :mod:`repro.lint.sarif`), since the flow
findings are lint rules ``FLOW001``–``FLOW004``.
"""

from __future__ import annotations

from repro.flow.taint import FlowResult

__all__ = ["render_summary", "render_witnesses", "render_cut"]


def render_summary(result: FlowResult) -> str:
    """One-paragraph overview: graph size, sources, sinks, verdict."""
    graph = result.graph
    lines = [
        f"flow analysis of {result.target_name!r}:",
        f"  graph: {len(graph.nodes())} node(s), {len(graph.edges())} edge(s), "
        f"{sum(1 for _ in graph.open_edges())} open",
        f"  sources: {', '.join(sorted(n.name for n in graph.sources())) or '-'}",
        f"  sinks: {', '.join(sorted(n.name for n in graph.sinks())) or '-'}",
        f"  tainted nodes: {len(result.tainted)}",
    ]
    if result.path_clean:
        lines.append("  verdict: PATH-CLEAN — no untrusted source reaches a sink")
    else:
        lines.append(f"  verdict: {len(result.witnesses)} unprotected "
                     f"source->sink path(s)")
    return "\n".join(lines)


def render_witnesses(result: FlowResult) -> str:
    """Every witness, hop by hop with the missing boundary per hop."""
    if result.path_clean:
        return "no unprotected paths"
    blocks = []
    for witness in result.witnesses:
        lines = [f"{witness.source} => {witness.sink} "
                 f"({len(witness.hops)} hop(s)):"]
        lines += [f"  [{i}] {line}"
                  for i, line in enumerate(witness.describe(), start=1)]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def render_cut(result: FlowResult) -> str:
    """The hardening cut per reached sink."""
    if result.path_clean:
        return "no unprotected paths; nothing to cut"
    lines = []
    for sink in sorted(result.cuts):
        cut = result.cuts[sink]
        if cut:
            pretty = ", ".join(f"{u}->{v}" for u, v in sorted(cut))
            lines.append(f"{sink}: secure {len(cut)} edge(s): {pretty}")
        else:
            lines.append(f"{sink}: sink is itself an untrusted source; "
                         f"no edge cut applies")
    return "\n".join(lines)
