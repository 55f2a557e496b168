"""Command-line experiment runner and tool fleet.

Usage::

    python -m repro list                 # enumerate all experiments
    python -m repro run FIG2             # regenerate one figure/table
    python -m repro run all --jobs 4     # every experiment, parallel + cached
    python -m repro run FIG1 TAB1 --json # two experiments, machine-readable
    python -m repro lint SCENARIO        # static security analysis
    python -m repro lint --rules         # the seclint rule catalog
    python -m repro flow SCENARIO        # taint/reachability analysis
    python -m repro flow SCENARIO --paths --cut   # witnesses + hardening cut
    python -m repro trace SCENARIO       # instrumented simulation trace
    python -m repro chaos SCENARIO       # fault campaign + resilience report
    python -m repro chaos all --plan severe --json   # machine-readable
    python -m repro redteam SCENARIO --campaigns     # ranked attack campaigns
    python -m repro redteam all --differential       # analyzer-agreement gate
    python -m repro sentinel SCENARIO    # streaming detection + trust report
    python -m repro sentinel all --plan severe --gate detect   # detection gate
    python -m repro audit                # self-audit the shipped source tree
    python -m repro audit --gate high --sarif   # CI gate, SARIF output
    python -m repro campaign run --tools chaos,lint --scenarios all
    python -m repro campaign resume <id> # re-execute only unfinished shards
    python -m repro campaign list        # journaled campaigns and their state

Each subcommand is one :class:`Tool` entry in ``TOOLS``; ``build_parser()``,
``SUBCOMMANDS`` and ``main()``'s dispatch are generated from that table.
Tools of one family share a pipeline (``_analyze``, ``_fault_campaign``)
and differ only by their hooks.  Every usage error, including a numeric
flag below the bound declared on its :class:`Arg`, exits 2 with one line
on stderr.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from repro.experiments import EXPERIMENTS, find
from repro.faults.plan import DEFAULT_DURATION, plan_names


class UsageError(Exception):
    """A bad invocation: ``main()`` prints the message and returns 2."""


@contextmanager
def _usage(*errors: type[Exception], template: str = "{}") -> Iterator[None]:
    """Re-raise ``errors`` from the block as a :class:`UsageError`."""
    try:
        yield
    except errors as exc:
        # str() of a KeyError adds quotes; its message is args[0]
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)
        raise UsageError(template.format(message)) from exc


def _known(kind: str, value: str, names: Sequence[str]) -> None:
    if value not in names:
        raise UsageError(f"unknown {kind} {value!r}; available: " + ", ".join(names))


def _ref(reference: str) -> Any:
    """Import ``"module:attribute"`` on use, so ``list`` starts fast."""
    module, _, attribute = reference.partition(":")
    return getattr(importlib.import_module(module), attribute)


@dataclass(frozen=True)
class Arg:
    """One ``add_argument`` call, plus an optional lower bound or a
    directory or output-file check."""

    flags: tuple[str, ...]
    options: dict[str, Any]
    low: int | None = None
    strict: bool = False        # the bound itself is rejected too
    directory: bool = False     # an existing file is rejected
    output: bool = False        # a directory, or a file in a missing one, is rejected

    def check(self, args: argparse.Namespace) -> None:
        value = getattr(args, self.flags[0].lstrip("-").replace("-", "_"))
        if self.low is not None and value is not None and (
                value < self.low or (self.strict and value == self.low)):
            raise UsageError(f"{self.flags[0]} must be {'>' if self.strict else '>='} {self.low}")
        if self.directory and value is not None:
            path = Path(value)
            existing = next(p for p in (path, *path.parents) if p.exists())
            if not existing.is_dir():
                raise UsageError(f"{self.flags[0]}: {str(existing)!r} is not a directory")
        if self.output and value is not None:
            path = Path(value)
            if path.is_dir():
                raise UsageError(f"{self.flags[0]}: {value!r} is a directory")
            if not path.parent.is_dir():
                raise UsageError(f"{self.flags[0]}: {str(path.parent)!r} is not a directory")


def arg(*flags: str, low: int | None = None, strict: bool = False, directory: bool = False,
        output: bool = False, **options: Any) -> Arg:
    return Arg(flags, options, low, strict, directory, output)


def _report_table(report: Any, args: argparse.Namespace) -> str:
    return report.to_table()


@dataclass(frozen=True)
class Tool:
    """One subcommand: ``run(tool, args)`` is its family's pipeline and the
    other fields are the hooks that pipeline calls.

    ``sarif``, ``validate`` and a fault campaign's ``engine`` are
    ``"module:attr"`` references, imported only when the tool runs.  A
    static analyzer's ``targets(tool, args)`` defaults to the named
    scenarios, its ``engine(args)`` returns ``(engine, rules)``, its
    ``render(report, args)`` defaults to the report's table, and its
    ``document(reports, args)``, when set, replaces the per-target
    ``--json``; both read a scenario's taint analysis and attack plan
    from ``report.analysis``, the one its run computed.  A fault
    campaign's ``render(document, args)`` draws the whole campaign.
    """

    name: str
    help: str
    run: Callable[[Tool, argparse.Namespace], int] | None = None
    args: tuple[Arg, ...] = ()
    subcommands: tuple[Tool, ...] = ()
    targets: Callable[[Tool, argparse.Namespace], list] | None = None
    engine: Any = None
    catalog: Callable[[], str] | None = None
    document: Callable[[list, argparse.Namespace], dict] | None = None
    sarif: str = "repro.lint.sarif:to_sarif_dict"
    render: Callable[..., str] = _report_table
    validate: str = ""
    gate: Callable[[dict, str], list[str]] | None = None
    baseline_comment: str = "accepted by baseline"


# -- shared arguments ---------------------------------------------------------

SEVERITIES = ["info", "low", "medium", "high", "critical", "none"]


def _flag(name: str, help: str) -> Arg:
    return arg(name, action="store_true", help=help)


def _gate_arg(findings: str = "findings") -> Arg:
    return arg("--gate", default="low", choices=SEVERITIES,
               help=f"fail (exit 1) on {findings} at or above this severity "
                    "(default: low; 'none' never fails)")


def _baseline_args(findings: str = "findings") -> tuple[Arg, Arg]:
    return (arg("--baseline", metavar="FILE",
                help="suppress findings pinned in this baseline file"),
            arg("--write-baseline", metavar="FILE", output=True,
                help=f"capture current {findings} as the baseline and exit 0"))


def _report_arg(noun: str) -> Arg:
    return arg("--report", metavar="FILE", output=True,
               help=f"also write the {noun} JSON document to FILE")


def _seed_arg(help: str) -> Arg:
    return arg("--base-seed", type=int, default=0, metavar="N", help=help)


def _jobs_arg(help: str) -> Arg:
    return arg("--jobs", "-j", type=int, default=1, metavar="N", low=1, help=help)


def _timeout_arg(default: float, help: str) -> Arg:
    return arg("--timeout", type=float, default=default, metavar="S", low=0, strict=True,
               help=help)


def _duration_arg(help: str = "campaign length in virtual-clock ticks") -> Arg:
    return arg("--duration", type=int, default=DEFAULT_DURATION, metavar="N", low=1,
               help=f"{help} (default {DEFAULT_DURATION})")


def _plan_arg(verb: str) -> Arg:
    return arg("--plan", default="baseline", metavar="PLAN",
               help=f"fault plan to {verb} (baseline or severe; default baseline)")


# -- shared steps -------------------------------------------------------------

def _scenarios(args: argparse.Namespace) -> list[str]:
    """The ``scenario`` argument, looked up in ``repro.lint.SCENARIOS``,
    with ``all`` expanded."""
    from repro.lint import get_scenario, scenario_names

    if args.scenario is None:
        raise UsageError("a scenario name (or 'all') is required; available: "
                         + ", ".join(scenario_names()))
    if args.scenario == "all":
        return scenario_names()
    with _usage(KeyError):
        return [get_scenario(args.scenario).name]


def _print_json(document: Any, validate: str = "") -> None:
    if validate:
        _ref(validate)(document)
    print(json.dumps(document, indent=2))


def _publish(document: dict, args: argparse.Namespace, noun: str,
             render: Callable[[], str]) -> None:
    """``--report FILE``, then the document (``--json``) or its text."""
    if args.report:
        with open(args.report, "w") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        print(f"wrote {noun} report to {args.report}", file=sys.stderr)
    print(json.dumps(document, indent=2) if args.json else render())


def _listing(items: list[str]) -> str:
    return ", ".join(items) or "none"


def _at(t: float | None, form: str = "t={:g}", never: str = "never") -> str:
    return never if t is None else form.format(t)


# -- static analyzers: lint, flow, redteam, audit -----------------------------

def _analyze(tool: Tool, args: argparse.Namespace) -> int:
    """One report per target, then the shared baseline, emission and gate."""
    from repro.lint import Baseline, Severity

    if getattr(args, "rules", False) and tool.catalog is not None:
        print(tool.catalog())
        return 0
    targets = (tool.targets or _scenario_targets)(tool, args)
    baseline = None
    if getattr(args, "baseline", None):
        with _usage(OSError, ValueError, template=f"cannot load baseline {args.baseline}: {{}}"):
            baseline = Baseline.load(args.baseline)
    engine, rules = tool.engine(args)
    reports = [engine.run(target, baseline=baseline) for target in targets]

    if getattr(args, "write_baseline", None):
        # one file per invocation: every scenario's findings are merged
        comment = getattr(args, "baseline_comment", tool.baseline_comment)
        combined = Baseline.from_report(reports[0], comment=comment)
        for report in reports[1:]:
            combined.target = "all"
            combined.entries.update(Baseline.from_report(report, comment=comment).entries)
        combined.save(args.write_baseline)
        scenarios = f"from {len(reports)} scenario(s) " if hasattr(args, "scenario") else ""
        print(f"wrote baseline with {len(combined)} suppression(s) "
              f"{scenarios}to {args.write_baseline}")
        return 0

    if args.json and tool.document is not None:
        _print_json(tool.document(reports, args), tool.validate)
    else:
        for report in reports:
            if args.sarif:
                _print_json(_ref(tool.sarif)(report, rules),
                            "repro.lint.sarif:validate_sarif_dict")
            elif args.json:
                _print_json(report.to_json_dict(rules), tool.validate)
            else:
                print(tool.render(report, args))
    gate = None if args.gate == "none" else Severity.from_name(args.gate)
    return max(report.exit_code(gate) for report in reports)


def _scenario_targets(tool: Tool, args: argparse.Namespace) -> list:
    from repro.lint import build_scenario

    return [build_scenario(name) for name in _scenarios(args)]


def _lint_engine(args: argparse.Namespace) -> tuple:
    from repro.lint import Linter

    linter = Linter()
    if args.disable:
        with _usage(KeyError, template="--disable: {}; see --rules for the catalog"):
            linter.disable(*[r.strip() for r in args.disable.split(",") if r.strip()])
    return linter, linter.enabled_rules()


def _lint_catalog() -> str:
    from repro.lint import full_catalog

    return "\n".join([f"{'id':8s} {'layer':18s} {'severity':9s} {'paper':16s} title",
                      f"{'-' * 8} {'-' * 18} {'-' * 9} {'-' * 16} {'-' * 40}"]
                     + [f"{r.rule_id:8s} {r.layer.name.lower():18s} {r.severity.name.lower():9s} "
                        f"{r.paper_ref:16s} {r.title}"
                        for r in sorted(full_catalog(), key=lambda r: r.rule_id)])


def _flow_engine(args: argparse.Namespace) -> tuple:
    from repro.flow import flow_linter

    linter = flow_linter()
    return linter, linter.enabled_rules()


def _render_flow(report: Any, args: argparse.Namespace) -> str:
    from repro.flow import render_cut, render_summary, render_witnesses

    result = report.analysis.flow
    blocks = [render_summary(result)]
    if args.paths:
        blocks.append(render_witnesses(result))
    if args.cut:
        blocks.append(render_cut(result))
    return "\n\n".join(blocks)


def _redteam(tool: Tool, args: argparse.Namespace) -> int:
    """The static analyzer pipeline, or ``--differential``: do lint, flow
    and redteam agree on every scenario?"""
    from repro.lint import Analysis, build_scenario
    from repro.redteam import differential_violations

    if not args.differential:
        return _analyze(tool, args)
    violations = {name: differential_violations(Analysis(build_scenario(name)))
                  for name in _scenarios(args)}
    for name, found in violations.items():
        if found:
            print(f"{name}: {len(found)} analyzer disagreement(s)")
            print("\n".join(f"  {violation}" for violation in found))
        else:
            print(f"{name}: analyzers agree (lint/flow/redteam)")
    return 1 if any(violations.values()) else 0


def _redteam_engine(args: argparse.Namespace) -> tuple:
    from repro.lint import Linter
    from repro.redteam import RT_RULES

    return Linter(RT_RULES), RT_RULES


def _redteam_document(reports: list, args: argparse.Namespace) -> dict:
    from repro.redteam import redteam_document

    return redteam_document([report.analysis.plan for report in reports],
                            base_seed=args.base_seed)


def _render_redteam(report: Any, args: argparse.Namespace) -> str:
    from repro.redteam import render_campaigns, render_summary

    result = report.analysis.plan
    blocks = [render_summary(result)]
    if args.campaigns:
        blocks.append(render_campaigns(result, top=args.top))
    return "\n\n".join(blocks)


def _audit_targets(tool: Tool, args: argparse.Namespace) -> list:
    from repro.audit import AuditContext

    with _usage(OSError, SyntaxError, template="cannot parse audit root: {}"):
        context = AuditContext.parse(args.root)
    if not context.modules:
        raise UsageError(f"no Python modules to audit under {str(context.root)!r}")
    return [context]


def _audit_engine(args: argparse.Namespace) -> tuple:
    from repro.audit import AuditEngine

    engine = AuditEngine()
    return engine, engine.checkers


def _audit_catalog() -> str:
    from repro.audit import all_checkers

    return "\n".join([f"{'id':8s} {'severity':9s} title", f"{'-' * 8} {'-' * 9} {'-' * 50}"]
                     + [f"{c.rule_id:8s} {c.severity.name.lower():9s} {c.title}"
                        for c in all_checkers()])


# -- fault campaigns: chaos, sentinel -----------------------------------------

def _fault_campaign(tool: Tool, args: argparse.Namespace) -> int:
    """Run the campaign, then validate, publish and gate its document."""
    names = _scenarios(args)
    _known("fault plan", args.plan, plan_names())
    document = _ref(tool.engine)(names, args.plan, base_seed=args.base_seed,
                                 duration=args.duration)
    _ref(tool.validate)(document)
    _publish(document, args, tool.name, lambda: tool.render(document, args))
    level = getattr(args, "gate", "none")
    failures = tool.gate(document, level) if tool.gate and level != "none" else []
    for failure in failures:
        print(f"gate '{level}' failed — {failure}", file=sys.stderr)
    return 1 if failures else 0


def _scenario_head(tool: str, result: dict, streamed: str = "") -> list[str]:
    window = result["window"]
    return [f"=== {tool}: {result['scenario']} "
            f"({'resilient' if result['resilient'] else 'no resilience'}) ===",
            f"fault window [{window['start']:g}, {window['end']:g}) over "
            f"{result['durationTicks']} ticks — {result['faults']['injected']} fault(s) "
            f"injected{streamed}"]


def _campaign_text(document: dict, args: argparse.Namespace, blocks: list[str],
                   totals: str) -> str:
    return "\n\n".join(blocks + [f"campaign '{args.plan}': "
                                 f"{document['summary']['scenarioCount']} scenario(s), {totals}"])


def _render_chaos(document: dict, args: argparse.Namespace) -> str:
    summary = document["summary"]
    return _campaign_text(
        document, args, [_chaos_block(result) for result in document["scenarios"]],
        f"{summary['faultsInjected']} fault(s) injected; layers sustained in-window: "
        f"{_listing(summary['layersSustained'])}; at minimal-risk or below: "
        f"{_listing(summary['scenariosAtMinimalRiskOrBelow'])}")


def _chaos_block(result: dict) -> str:
    lines = _scenario_head("chaos", result)
    lines.append(f"{'layer':18s}  {'avail':>6s}  {'in-window':>9s}")
    lines += [f"{entry['layer']:18s}  {entry['availability']:6.2%}  "
              f"{entry['windowAvailability']:9.2%}" for entry in result["layers"]]
    degradation = result["degradation"]
    lines.append(f"service level: min={degradation['minLevel']} "
                 f"final={degradation['finalLevel']} "
                 f"degraded@{_at(degradation['timeToDegradeS'], '{:g}s')} "
                 f"recovered@{_at(degradation['timeToRecoverS'], '{:g}s')}")
    retry = result["retry"]
    if retry["calls"]:
        lines.append(f"retries: {retry['retries']} across {retry['calls']} call(s), "
                     f"{retry['recovered']} recovered, {retry['exhausted']} exhausted")
    lines += [f"breaker {breaker['name']}: {breaker['opens']} open(s), "
              f"{breaker['rejections']} rejection(s), final {breaker['finalState']}"
              for breaker in result["breakers"]]
    if result["ssi"] is not None:
        ssi = result["ssi"]
        lines.append(f"ssi resolver: {ssi['hits']} fresh, {ssi['staleHits']} stale-cache, "
                     f"{ssi['failures']} failure(s)")
    if result["alerts"]:
        lines.append(f"ids alerts handled: {result['alerts']}")
    return "\n".join(lines)


def _render_sentinel(document: dict, args: argparse.Namespace) -> str:
    summary = document["summary"]
    return _campaign_text(
        document, args, [_sentinel_block(result, args) for result in document["scenarios"]],
        f"{summary['alarmIncidents']} incident(s); detected: "
        f"{_listing(summary['scenariosDetected'])}; clean: {_listing(summary['scenariosClean'])}; "
        f"trust collapsed: {_listing(summary['trustCollapsed'])}")


def _sentinel_block(result: dict, args: argparse.Namespace) -> str:
    sentinel, detection = result["sentinel"], result["detection"]
    lines = _scenario_head("sentinel", result,
                           f", {sentinel['eventsConsumed']} event(s) streamed")
    lines.append(f"first alarm: {_at(detection['firstAlarmT'])}; "
                 f"safe stop: {_at(detection['safeStopT'])}; "
                 f"lead: {_at(detection['leadTicks'], '{:g} tick(s)', 'n/a')}")
    lines += [f"incident #{incident['id']}: opened t={incident['openedT']:g}, "
              f"{_at(incident['closedT'], 'closed t={:g}', 'open')}, "
              f"{incident['alarmCount']} alarm(s) across {', '.join(incident['sources'])}"
              f"{' [cross-layer]' if incident['crossLayer'] else ''}"
              for incident in sentinel["incidents"]]
    if detection["trustCollapsed"]:
        lines.append("trust collapsed: " + ", ".join(detection["trustCollapsed"]))
    if result["response"]["isolated"]:
        lines.append("isolated: " + ", ".join(result["response"]["isolated"]))
    lines.append(f"service level: min={result['degradation']['minLevel']} "
                 f"final={result['degradation']['finalLevel']}")
    if args.alarms:
        lines.append(f"{'source':18s} {'detector':17s} {'state':8s} {'moves':>5s}  first alarm")
        lines += [f"{m['source']:18s} {m['detector']:17s} {m['finalState']:8s} "
                  f"{m['transitions']:5d}  {_at(m['firstAlarmT'], never='-')}"
                  for m in sentinel["machines"]]
    if args.trust:
        lines.append(f"{'source':18s} {'phase':10s} {'score':>6s} {'min':>6s} {'hard':>4s}  "
                     f"collapsed")
        lines += [f"{e['source']:18s} {e['phase']:10s} {e['score']:6.3f} {e['minScore']:6.3f} "
                  f"{e['hardHits']:4d}  {_at(e['collapsedT'], never='-')}"
                  for e in sentinel["trust"]]
    return "\n".join(lines)


def _sentinel_gate(document: dict, level: str) -> list[str]:
    """The twin CI gates: 'clean' (no alarms) and 'detect' (alarm in time)."""
    failures = []
    for result in document["scenarios"]:
        name, detection = result["scenario"], result["detection"]
        if level == "clean":
            if detection["alarmIncidents"]:
                failures.append(f"{name}: {detection['alarmIncidents']} ALARM incident(s) "
                                f"on a scenario expected to stay clean")
            continue
        if not detection["alarmRaised"]:
            failures.append(f"{name}: no ALARM raised")
        elif not detection["detectedBeforeSafeStop"]:
            failures.append(f"{name}: first alarm t={detection['firstAlarmT']:g} "
                            f"missed safe stop t={detection['safeStopT']:g}")
        if not detection["trustCollapsed"]:
            failures.append(f"{name}: no trust score collapsed")
    return failures


# -- one-off pipelines: list, run, trace, campaign ----------------------------

def _list(tool: Tool, args: argparse.Namespace) -> int:
    width = max(len(e.exp_id) for e in EXPERIMENTS)
    print(f"{'id'.ljust(width)}  artifact   description")
    print(f"{'-' * width}  ---------  {'-' * 50}")
    for experiment in EXPERIMENTS:
        print(f"{experiment.exp_id.ljust(width)}  {experiment.paper_artifact:9s}  "
              f"{experiment.description}")
    return 0


def _run(tool: Tool, args: argparse.Namespace) -> int:
    """The experiments as a campaign of experiment shards, journaled into a
    temporary directory; the result cache is what a re-run resumes from."""
    import tempfile

    from repro.campaign import (CampaignEngine, ResultCache, experiment_executor,
                                experiment_spec, validate_campaign_dict)
    from repro.obs.timeline import render_timeline

    if any(exp_id.lower() == "all" for exp_id in args.exp_ids):
        experiments = list(EXPERIMENTS)
    else:
        with _usage(KeyError):
            experiments = list(dict.fromkeys(find(exp_id) for exp_id in args.exp_ids))
    cache = None if args.no_cache else ResultCache(
        args.cache_dir, max_entries=args.cache_max_entries or None)
    spec = experiment_spec(experiments, args.base_seed)
    with tempfile.TemporaryDirectory(prefix="repro-run-") as journal_root:
        engine = CampaignEngine(spec, jobs=args.jobs, journal_root=journal_root,
                                shard_timeout_s=args.timeout,
                                install_signal_handlers=True,
                                execute=experiment_executor(experiments, cache))
        report = engine.run()
    document = report.to_json_dict()
    validate_campaign_dict(document)
    if args.json:
        print(json.dumps(document, indent=2))
        return report.exit_code()
    entries = {entry["scenario"]: entry for entry in document["shards"]}
    for experiment in experiments:
        entry = entries[experiment.exp_id]
        print(f"--- {experiment.exp_id}: {entry['status']} ---")
        for artifact in (entry["result"] or {}).get("artifacts", []):
            print("\n".join([f"=== {artifact['title']} ===", *artifact["rows"]]) + "\n")
    print(report.to_table())
    if args.timeline:
        print()
        print(render_timeline(list(engine.events)))
    return report.exit_code()


def _trace(tool: Tool, args: argparse.Namespace) -> int:
    from repro.obs import (EventLog, TraceReport, instrumented, render_metrics_table,
                           run_trace_scenario, validate_trace_dict)
    from repro.obs.timeline import render_timeline

    documents: list[dict] = []
    events: list = []
    for name in _scenarios(args):
        with instrumented(capacity=args.events):
            result = run_trace_scenario(name)
            report = TraceReport.from_instrumentation(name, result=result)
        # the report keeps this block's events; leaving it restored the old ring
        events += report.events
        if args.json:
            document = report.to_json_dict()
            validate_trace_dict(document)
            documents.append(document)
            continue
        if args.timeline:
            print(f"=== timeline: {name} ===")
            print(render_timeline(report.events))
        else:
            print(report.to_table())
        if args.metrics:
            print(render_metrics_table(report.metrics))
    if args.jsonl:
        log = EventLog(capacity=max(1, len(events)))
        for event in events:
            log.append(event)
        written = log.write_jsonl(args.jsonl)
        print(f"wrote {written} event(s) to {args.jsonl}", file=sys.stderr)
    if args.json:
        print(json.dumps(documents[0] if len(documents) == 1 else documents, indent=2))
    return 0


def _campaign_spec(args: argparse.Namespace):
    """Build the shard matrix a ``campaign run`` invocation asks for."""
    from repro.campaign import CampaignSpec, CampaignTool
    from repro.lint import scenario_names

    def values(text: str) -> list[str]:
        return [value.strip() for value in text.split(",") if value.strip()]

    known_tools = [tool.value for tool in CampaignTool]
    tools = known_tools if "all" in values(args.tools) else values(args.tools)
    scenarios = (values(args.scenarios) if args.scenarios != "all"
                 else sorted(scenario_names()))
    plans = values(args.plans)
    for kind, chosen, known in (("tool", tools, known_tools),
                                ("scenario", scenarios, scenario_names()),
                                ("fault plan", plans, plan_names())):
        for value in chosen:
            _known(kind, value, known)
    return CampaignSpec.matrix(
        tools=[CampaignTool(value) for value in tools], scenarios=scenarios, plans=plans,
        seeds=[int(seed) for seed in values(str(args.seeds))], duration=args.duration,
        name=args.name)


def _campaign(tool: Tool, args: argparse.Namespace) -> int:
    """``campaign run``/``resume`` over one journal."""
    from repro.campaign import (CampaignEngine, CampaignError, JournalCorrupt, load_campaign,
                                validate_campaign_dict)

    with _usage(CampaignError, JournalCorrupt, ValueError):
        spec, state = ((_campaign_spec(args), None) if tool.name == "run"
                       else load_campaign(args.campaign_id, args.journal_root))
    engine = CampaignEngine(spec, jobs=args.jobs, journal_root=args.journal_root,
                            shard_timeout_s=args.timeout, install_signal_handlers=True)
    with _usage(CampaignError, JournalCorrupt):
        report = engine.run(resume=tool.name == "resume", state=state)
    document = report.to_json_dict()
    validate_campaign_dict(document)
    _publish(document, args, "campaign", report.to_table)
    if report.interrupted:
        print(f"interrupted; resume with: {engine.resume_command}", file=sys.stderr)
    return report.exit_code()


def _campaign_status(tool: Tool, args: argparse.Namespace) -> int:
    """``campaign status``: summarise one journal without running it."""
    from repro.campaign import CampaignEngine, CampaignError, JournalCorrupt, load_campaign

    with _usage(CampaignError, JournalCorrupt, ValueError):
        spec, state = load_campaign(args.campaign_id, args.journal_root)
    print(f"campaign {spec.campaign_id}: {state.status}, "
          f"{state.settled_count}/{len(spec)} shard(s) settled, "
          f"{len(state.quarantined)} quarantined, {state.records} journal record(s)")
    if state.in_flight:
        print("in flight at last crash/interrupt: " + ", ".join(state.in_flight))
    if not state.ended:
        print(f"resume with: {CampaignEngine(spec).resume_command}")
    return 0


def _campaign_list(tool: Tool, args: argparse.Namespace) -> int:
    from repro.campaign import list_campaigns

    rows = list_campaigns(args.journal_root)
    if not rows:
        print("no journaled campaigns")
        return 0
    width = max(len(row["id"]) for row in rows)
    print(f"{'id'.ljust(width)}  {'status':12s}  settled")
    for row in rows:
        print(f"{row['id'].ljust(width)}  {row['status']:12s}  {row['settled']}/{row['shards']}")
    return 0


# -- the table ----------------------------------------------------------------

_SCENARIO = arg("scenario", nargs="?", help="scenario name from repro.lint.SCENARIOS, or 'all'")
_JOURNAL_ROOT = arg("--journal-root", metavar="DIR", default=None, directory=True,
                    help="journal directory (default .repro-cache/campaigns)")
_CAMPAIGN_ID = arg("campaign_id", metavar="ID", help="campaign id from `campaign list`")
_CAMPAIGN_COMMON = (
    _jobs_arg("supervised worker processes (default 1)"),
    _timeout_arg(120.0, "per-shard time budget in seconds; retries get only what remains "
                        "(default 120)"),
    _JOURNAL_ROOT,
    _flag("--json", "emit the schema-validated campaign document"),
    _report_arg("campaign"))

TOOLS: tuple[Tool, ...] = (
    Tool("list", "enumerate experiments", _list),
    Tool("run", "run experiments as campaign shards (parallel, cached)", _run, (
        arg("exp_ids", nargs="+", metavar="EXP_ID", help="experiment id(s) from `list`, or 'all'"),
        _jobs_arg("supervised worker processes (default 1)"),
        _flag("--no-cache", "ignore and don't update the result cache"),
        _flag("--json", "emit the schema-validated campaign document"),
        _flag("--timeline", "append the campaign's shard event timeline"),
        _timeout_arg(900.0, "per-experiment timeout in seconds (default 900)"),
        _seed_arg("base seed; re-shards every experiment's rng streams (default 0)"),
        arg("--cache-dir", metavar="DIR", directory=True,
            help="result-cache directory (default .repro-cache/runner)"),
        arg("--cache-max-entries", type=int, default=512, metavar="N", low=0,
            help="prune the result cache to the N most recently used entries on every write "
                 "(default 512; 0 disables pruning)"))),
    Tool("lint", "static security-configuration analysis", _analyze, (
        _SCENARIO,
        _flag("--json", "emit the SARIF-lite JSON report"),
        _gate_arg(),
        *_baseline_args(),
        arg("--baseline-comment", default="accepted: intentionally insecure scenario",
            help="comment recorded with --write-baseline entries"),
        arg("--disable", metavar="IDS", help="comma-separated rule ids to skip"),
        _flag("--rules", "print the rule catalog and exit"),
        _flag("--sarif", "emit a SARIF 2.1.0 log instead of a table")),
        engine=_lint_engine, catalog=_lint_catalog,
        validate="repro.lint:validate_report_dict"),
    Tool("flow", "static cross-layer taint/reachability analysis", _analyze, (
        _SCENARIO,
        _flag("--paths", "print every source->sink witness hop by hop"),
        _flag("--cut", "print the minimal hardening cut per sink"),
        _flag("--json", "emit the SARIF-lite JSON report (FLOW rules only)"),
        _flag("--sarif", "emit a SARIF 2.1.0 log (FLOW rules only)"),
        _gate_arg(),
        *_baseline_args("flow findings")),
        engine=_flow_engine, render=_render_flow,
        validate="repro.lint:validate_report_dict"),
    Tool("trace", "run an instrumented simulation and show its trace", _trace, (
        _SCENARIO,
        _flag("--json", "emit the schema-validated trace document"),
        _flag("--metrics", "append the counters/gauges/histograms table"),
        _flag("--timeline", "print only the cross-layer event timeline"),
        arg("--events", type=int, default=65536, metavar="N", low=1,
            help="event ring-buffer capacity (default 65536)"),
        arg("--jsonl", metavar="FILE", output=True,
            help="also export the event log as JSONL"))),
    Tool("chaos", "run a scenario under an injected fault campaign", _fault_campaign, (
        _SCENARIO,
        _plan_arg("inject"),
        _seed_arg("campaign base seed; identical seed + plan replays the exact fault sequence "
                  "(default 0)"),
        _duration_arg(),
        _flag("--json", "emit the schema-validated chaos document"),
        _report_arg("chaos")),
        engine="repro.faults.chaos:run_chaos_campaign",
        render=_render_chaos, validate="repro.faults.report:validate_chaos_dict"),
    Tool("redteam", "plan ranked attack campaigns (static red team)", _redteam, (
        _SCENARIO,
        _flag("--campaigns", "print every ranked campaign hop by hop with the defense that "
                             "breaks each step"),
        arg("--top", type=int, default=None, metavar="N", low=0,
            help="with --campaigns, show only the N cheapest campaigns"),
        _flag("--json", "emit the schema-validated campaign document"),
        _flag("--sarif", "emit a SARIF 2.1.0 log (RT rules only)"),
        _gate_arg("RT findings"),
        _flag("--differential", "check the three static analyzers agree; exit 1 on any "
                                "disagreement"),
        _seed_arg("recorded in the JSON document; the planner is static, so output is "
                  "byte-identical per (scenario, seed) (default 0)")),
        engine=_redteam_engine, document=_redteam_document,
        render=_render_redteam, validate="repro.redteam:validate_redteam_dict"),
    Tool("sentinel", "stream a fault campaign into the online alarm engine", _fault_campaign, (
        _SCENARIO,
        _plan_arg("stream against"),
        _seed_arg("campaign base seed; identical seed + plan replays the exact telemetry and "
                  "verdicts (default 0)"),
        _duration_arg(),
        _flag("--trust", "append the per-source trust table"),
        _flag("--alarms", "append the per-machine alarm table"),
        _flag("--json", "emit the schema-validated sentinel document"),
        _report_arg("sentinel"),
        arg("--gate", default="none", choices=["clean", "detect", "none"],
            help="fail (exit 1) unless every scenario stays alarm-free ('clean') or raises an "
                 "ALARM with collapsed trust before SAFE_STOP ('detect'); default none")),
        engine="repro.sentinel:run_sentinel_campaign", render=_render_sentinel,
        gate=_sentinel_gate, validate="repro.sentinel:validate_sentinel_dict"),
    Tool("audit", "statically self-audit the shipped source tree", _analyze, (
        arg("--root", metavar="DIR", default=None,
            help="source tree to audit (default: the shipped src/repro)"),
        _flag("--json", "emit the schema-validated audit document"),
        _flag("--sarif", "emit a SARIF 2.1.0 log (AUD rules only)"),
        arg("--gate", nargs="?", const="info", default="none", choices=SEVERITIES,
            help="fail (exit 1) on findings at or above this severity (bare --gate means "
                 "'info'; default: never fail)"),
        *_baseline_args(),
        _flag("--rules", "print the checker catalog and exit")),
        targets=_audit_targets, engine=_audit_engine, catalog=_audit_catalog,
        sarif="repro.audit:to_sarif_dict", validate="repro.audit:validate_audit_dict",
        baseline_comment="accepted: pre-existing audit finding"),
    Tool("campaign", "crash-safe resumable campaigns over the tool fleet", subcommands=(
        Tool("run", "journal and execute a new shard matrix", _campaign, (
            arg("--tools", default="all", metavar="T,T",
                help="comma-separated tools (chaos,sentinel,redteam,flow,lint; default all)"),
            arg("--scenarios", default="all", metavar="S,S",
                help="comma-separated scenario names (default all)"),
            arg("--plans", default="baseline", metavar="P,P",
                help="fault plans for chaos/sentinel shards (default baseline)"),
            arg("--seeds", default="0", metavar="N,N",
                help="comma-separated base seeds (default 0)"),
            _duration_arg("virtual-clock ticks for chaos/sentinel shards"),
            arg("--name", default="", metavar="NAME",
                help="campaign id (default: a digest of the shard matrix)"),
            *_CAMPAIGN_COMMON)),
        Tool("resume", "replay a journal and run only unfinished shards", _campaign,
             (_CAMPAIGN_ID, *_CAMPAIGN_COMMON)),
        Tool("status", "summarise one campaign's journal without running", _campaign_status,
             (_CAMPAIGN_ID, _JOURNAL_ROOT)),
        Tool("list", "enumerate journaled campaigns", _campaign_list, (_JOURNAL_ROOT,)))),
)

#: Every subcommand with its one-line description, for ``--help``.
SUBCOMMANDS: dict[str, str] = {tool.name: tool.help for tool in TOOLS}


def _add_parser(subparsers: Any, tool: Tool) -> None:
    parser = subparsers.add_parser(tool.name, help=tool.help)
    parser.set_defaults(tool=tool)
    for argument in tool.args:
        parser.add_argument(*argument.flags, **argument.options)
    if tool.subcommands:
        nested = parser.add_subparsers(dest=f"{tool.name}_command", required=True)
        for subcommand in tool.subcommands:
            _add_parser(nested, subcommand)


def build_parser() -> argparse.ArgumentParser:
    """The full CLI parser, generated from ``TOOLS``."""
    parser = argparse.ArgumentParser(prog="python -m repro",
                                     description="Reproduce the paper's figures and tables.")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for tool in TOOLS:
        _add_parser(subparsers, tool)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    tool: Tool = args.tool
    assert tool.run is not None, "a tool with subcommands never ends the parse"
    try:
        for argument in tool.args:
            argument.check(args)
        return tool.run(tool, args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like other
        # well-behaved CLI tools instead of tracebacking.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    raise SystemExit(code)
