"""The FLOW rule family: taint-analysis findings as lint rules.

Each rule is a function of the run's one
:class:`~repro.flow.taint.FlowResult`: :class:`~repro.lint.engine.Linter`
analyzes the target (:func:`repro.flow.taint.analyze`) once per run and
hands the result to every FLOW rule, which reports through the ordinary
lint machinery, so FLOW findings baseline, fingerprint, gate, and
serialize exactly like every other rule family.  Subjects are stable
``source=>sink`` (or edge) labels; messages carry the full path witness
and the hardening cut inline, because a flow finding without its path
is unactionable.

``repro.lint.rules`` extends these into the shared ``CATALOG`` through
the lazy ``full_catalog()``; this module must therefore never import
``repro.lint.rules`` (only the engine) or the catalog would cycle.
"""

from __future__ import annotations

from functools import partial
from typing import Iterator

from repro.core.layers import Layer
from repro.lint.engine import Rule, Severity, rule

from repro.flow.graph import SINK_CRITICALITY, FlowEdge
from repro.flow.taint import FlowResult, PathWitness

__all__ = ["FLOW_RULES"]

FLOW_RULES: list[Rule] = []
_rule = partial(rule, FLOW_RULES, reads="flow")


def _witness_message(result: FlowResult, witness: PathWitness) -> str:
    lines = [f"untrusted data flows {witness.source} => {witness.sink} "
             f"({len(witness.hops)} hop(s))"]
    lines += [f"  {line}" for line in witness.describe()]
    cut = result.cuts.get(witness.sink, set())
    if cut:
        pretty = ", ".join(f"{u}->{v}" for u, v in sorted(cut))
        lines.append(f"  harden first: {pretty}")
    return "\n".join(lines)


@_rule("FLOW001", "untrusted source reaches safety-critical component",
       layer=Layer.NETWORK, severity=Severity.CRITICAL,
       paper_ref="§V-C / §VIII",
       remediation="break the witnessed path: deploy an authenticated "
                   "boundary on one of the listed hops (the hardening cut "
                   "names the cheapest set)")
def flow_taint_reaches_critical(result: FlowResult) -> Iterator[tuple[str, str]]:
    for witness in result.witnesses:
        sink = result.graph.node(witness.sink)
        if sink.kind != "component" or sink.criticality < SINK_CRITICALITY:
            continue
        yield (f"{witness.source}=>{witness.sink}",
               _witness_message(result, witness))


@_rule("FLOW002", "untrusted source reaches personal-data store",
       layer=Layer.DATA, severity=Severity.HIGH,
       paper_ref="§V / Fig. 8",
       remediation="require authentication on the public endpoint and move "
                   "bucket-unlocking secrets out of process memory")
def flow_taint_reaches_datastore(result: FlowResult) -> Iterator[tuple[str, str]]:
    for witness in result.witnesses:
        sink = result.graph.node(witness.sink)
        if sink.kind != "datastore":
            continue
        yield (f"{witness.source}=>{witness.sink}",
               _witness_message(result, witness))


@_rule("FLOW003", "gateway forwards tainted traffic into critical zone",
       layer=Layer.NETWORK, severity=Severity.MEDIUM,
       paper_ref="§III / Fig. 3",
       remediation="narrow the gateway whitelist so externally tainted "
                   "ports cannot emit toward safety-critical ECUs")
def flow_gateway_carries_taint(result: FlowResult) -> Iterator[tuple[str, str]]:
    seen: set[str] = set()
    for edge in result.graph.edges():
        if edge.kind != "gateway" or edge.src not in result.tainted:
            continue
        dst = result.graph.node(edge.dst)
        if dst.criticality < SINK_CRITICALITY:
            continue
        subject = f"{edge.src}->{edge.dst}"
        if subject in seen:
            continue
        seen.add(subject)
        yield (subject,
               f"tainted node {edge.src!r} can inject through the gateway "
               f"into criticality-{dst.criticality} {edge.dst!r} "
               f"({edge.note})")


def _credential_edges(result: FlowResult) -> Iterator[FlowEdge]:
    for edge in result.graph.edges():
        if edge.kind in ("credential", "provisioning") and edge.weakness:
            yield edge


@_rule("FLOW004", "provisioning relies on an unverifiable credential",
       layer=Layer.SOFTWARE_PLATFORM, severity=Severity.MEDIUM,
       paper_ref="§IV",
       remediation="anchor issuer and subject in the verifiable data "
                   "registry and re-issue within a valid window")
def flow_weak_credential_edge(result: FlowResult) -> Iterator[tuple[str, str]]:
    seen: set[str] = set()
    for edge in _credential_edges(result):
        subject = f"{edge.src}->{edge.dst}"
        if subject in seen:
            continue
        seen.add(subject)
        yield (subject,
               f"{edge.kind} edge {edge.src} -> {edge.dst} is not "
               f"verifiable: {edge.weakness}")
