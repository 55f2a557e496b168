"""Every report validator rejects malformed input with a typed error.

For each validator, one real document is built in-process from the
shipped scenarios.  Every node of it (the first 3 items of each list)
is then replaced, one at a time, by each value in ``REPLACEMENTS``.
Each mutant must either validate or raise
:class:`repro.core.schema.SchemaError`; any other exception is an
untyped escape (a traceback instead of a verdict).
"""

import copy
import importlib
import pathlib
import json
import tempfile
import textwrap

import pytest

from repro.audit import AuditContext, AuditEngine, validate_audit_dict
from repro.audit.report import to_sarif_dict as audit_to_sarif
from repro.campaign import (CampaignReport, CampaignSpec, CampaignTool,
                            ShardEntry, execute_shard, experiment_spec,
                            result_digest, validate_campaign_dict)
from repro.core.schema import SchemaError
from repro.experiments import find
from repro.faults import run_chaos_campaign, validate_chaos_dict
from repro.lint import (Analysis, Baseline, Linter, build_scenario,
                        validate_report_dict)
from repro.lint.sarif import to_sarif_dict, validate_sarif_dict
from repro.obs import (TraceReport, instrumented, run_trace_scenario,
                       validate_metrics_dict, validate_trace_dict)
from repro.redteam import redteam_document, validate_redteam_dict
from repro.sentinel import run_sentinel_campaign, validate_sentinel_dict

REPLACEMENTS = (None, 7, "x", [], {}, True, -1.5)
LIST_PREFIX = 3


def redteam_fleet_document(*names):
    return redteam_document([Analysis(build_scenario(name)).plan
                             for name in names], base_seed=0)


def lint_document():
    linter = Linter()
    report = linter.run(build_scenario("cariad-breach"))
    return report.to_json_dict(linter.enabled_rules())


def lint_sarif_document():
    linter = Linter()
    target = build_scenario("pkes-legacy")
    # Baseline the first run so the log carries suppressed results too.
    baseline = Baseline.from_report(linter.run(target))
    baseline.entries = dict(list(baseline.entries.items())[:1])
    report = linter.run(target, baseline=baseline)
    return to_sarif_dict(report, linter.enabled_rules())


def _audit_run():
    """Audit a tree that trips AUD001 (stdlib random) and AUD006."""
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp) / "repro"
        (root / "faults").mkdir(parents=True)
        (root / "faults" / "jitter.py").write_text(textwrap.dedent("""\
            import random

            def jitter(bins=[]):
                bins.append(random.random())
                return bins
        """))
        engine = AuditEngine()
        return engine, engine.run(AuditContext.parse(root))


def audit_document():
    engine, report = _audit_run()
    return report.to_json_dict(engine.checkers)


def audit_sarif_document():
    engine, report = _audit_run()
    return audit_to_sarif(report, engine.checkers)


def trace_document():
    with instrumented():
        result = run_trace_scenario("onboard-insecure")
        return TraceReport.from_instrumentation("onboard-insecure",
                                                result=result).to_json_dict()


def metrics_document():
    return trace_document()["metrics"]


def campaign_document():
    spec = CampaignSpec.matrix(
        tools=[CampaignTool.LINT, CampaignTool.CHAOS],
        scenarios=["maas-platform", "pkes-legacy"], plans=["baseline"],
        seeds=[0], duration=20, name="schemas")
    # An interrupted report: every shard but the last settled.
    report = CampaignReport(spec=spec, interrupted=True)
    for shard in spec.shards[:-1]:
        payload = execute_shard(shard.to_dict())
        report.entries[shard.shard_id] = ShardEntry(
            shard=payload["shard"], status=payload["status"],
            result=json.loads(payload["result"]), digest=payload["digest"],
            error=payload["error"])
    return report.to_json_dict()


def sweep_document():
    """What ``repro run --json`` prints: experiment shards, interrupted
    with one still pending."""
    spec = experiment_spec([find(exp_id) for exp_id in
                            ("FIG1", "FIG2", "TAB1", "EXT-1", "EXT-2")])
    outcomes = {"FIG1": ("ok", {"artifacts": [{"title": "Fig. 1",
                                               "rows": ["r1", "r2"]}]}, ""),
                "FIG2": ("ok", {"artifacts": []}, ""),
                "TAB1": ("error", None, "test_table: AssertionError: failed"),
                "EXT-1": ("timeout", None, "timed out after 0.3s budget")}
    report = CampaignReport(spec=spec, interrupted=True)
    for shard in spec.shards:
        if shard.scenario in outcomes:
            status, result, error = outcomes[shard.scenario]
            report.entries[shard.shard_id] = ShardEntry(
                shard=shard.to_dict(), status=status, result=result,
                digest=result_digest(result) if result is not None else "",
                error=error)
    return report.to_json_dict()


CASES = {
    "lint": (validate_report_dict, lint_document),
    "lint-sarif": (validate_sarif_dict, lint_sarif_document),
    "redteam": (validate_redteam_dict,
                lambda: redteam_fleet_document("pkes-legacy",
                                               "onboard-hardened")),
    "audit": (validate_audit_dict, audit_document),
    "audit-sarif": (validate_sarif_dict, audit_sarif_document),
    "trace": (validate_trace_dict, trace_document),
    "metrics": (validate_metrics_dict, metrics_document),
    "chaos": (validate_chaos_dict,
              lambda: run_chaos_campaign(["cariad-breach", "maas-platform"],
                                         "baseline", duration=20)),
    "sentinel": (validate_sentinel_dict,
                 lambda: run_sentinel_campaign(["onboard-insecure"], "severe",
                                               duration=60)),
    "campaign": (validate_campaign_dict, campaign_document),
    "sweep": (validate_campaign_dict, sweep_document),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    validator, build = CASES[request.param]
    return validator, build()


def node_paths(node, path=()):
    """Every node's path; only the first LIST_PREFIX items of a list."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from node_paths(child, path + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node[:LIST_PREFIX]):
            yield from node_paths(child, path + (index,))


def untyped_escapes(validator, document):
    """(path, replacement, exception) for every mutant that escapes."""
    escapes = []
    for path in list(node_paths(document)):
        parent = document
        for key in path[:-1]:
            parent = parent[key]
        original = parent[path[-1]] if path else document
        for replacement in REPLACEMENTS:
            mutant = copy.copy(replacement)
            if path:
                parent[path[-1]] = mutant
            try:
                validator(document if path else mutant)
            except SchemaError:
                pass
            except Exception as exc:
                escapes.append((path, replacement, repr(exc)))
            finally:
                if path:
                    parent[path[-1]] = original
    return escapes


def test_real_document_validates(case):
    validator, document = case
    validator(document)


def test_every_mutant_is_accepted_or_typed(case):
    validator, document = case
    escapes = untyped_escapes(validator, document)
    assert not escapes, f"{len(escapes)} untyped escapes, e.g. {escapes[:5]}"
    validator(document)  # every mutation was undone


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(baseSeed=True),
    lambda d: d["scenarios"][0]["library"].update(attacks=True),
], ids=["baseSeed", "library.attacks"])
def test_redteam_rejects_bool_in_int_fields(mutate):
    document = redteam_fleet_document("pkes-legacy")
    mutate(document)
    with pytest.raises(SchemaError, match="must be an int"):
        validate_redteam_dict(document)


#: The blocks each validator compares against the producer's derivation:
#: case -> [(block path, the keys derived from the rest of the document)].
DERIVED = {
    "lint": [(("summary",), ("total", "bySeverity"))],
    "redteam": [(("summary",), ("scenarioCount", "campaignCount",
                                "defeatedScenarios", "cheapest"))],
    "audit": [(("summary",), ("total", "byRule"))],
    "trace": [(("summary",), ("spans", "events", "layers", "byKind"))],
    "chaos": [(("summary",), ("scenarioCount", "faultsInjected",
                              "layersSustained",
                              "scenariosAtMinimalRiskOrBelow"))],
    "sentinel": [(("scenarios", 0, "detection"),
                  ("alarmRaised", "firstAlarmT", "alarmIncidents",
                   "trustCollapsed", "safeStopT", "leadTicks",
                   "detectedBeforeSafeStop")),
                 (("summary",), ("scenarioCount", "alarmIncidents",
                                 "scenariosDetected", "scenariosClean",
                                 "trustCollapsed"))],
    "campaign": [(("summary",), ("total", "ok", "errors", "timeouts",
                                 "quarantined", "pending", "complete"))],
}


def perturbed(value):
    """A value of the same JSON type as ``value`` that differs from it."""
    if isinstance(value, bool):
        return not value
    if value is None or isinstance(value, (int, float)):
        return 1.0 if value is None else value + 1
    if isinstance(value, str):
        return value + "-x"
    if isinstance(value, list):
        return value + ["zz-extra"]
    assert value, "cannot perturb an empty map"
    first = next(iter(value))
    return {**value, first: perturbed(value[first])}


@pytest.mark.parametrize("name", sorted(DERIVED))
def test_derived_key_lies_raise_at_the_key(name):
    validator, build = CASES[name]
    document = build()
    for path, keys in DERIVED[name]:
        block = document
        for step in path:
            block = block[step]
        where = "".join(f"[{step}]" if isinstance(step, int) else f".{step}"
                        for step in path).lstrip(".")
        for key in keys:
            original = block[key]
            block[key] = perturbed(original)
            with pytest.raises(SchemaError) as excinfo:
                validator(document)
            assert str(excinfo.value).startswith(f"{where}.{key}: "), \
                str(excinfo.value)
            block[key] = original
    validator(document)


@pytest.mark.parametrize("name, producer, report", [
    ("chaos", "repro.faults.chaos", "repro.faults.report"),
    ("sentinel", "repro.sentinel.campaign", "repro.sentinel.report"),
])
def test_document_header_is_the_report_modules_constants(name, producer, report,
                                                          monkeypatch):
    producer, report = importlib.import_module(producer), importlib.import_module(report)
    document = CASES[name][1]()
    assert document["version"] == report.SCHEMA_VERSION
    assert document["tool"]["name"] == report.TOOL_NAME
    # the producer holds the report module's constants and builds the
    # header from them, so a bump in the report module is the only one
    assert vars(producer)["SCHEMA_VERSION"] is report.SCHEMA_VERSION
    assert vars(producer)["TOOL_NAME"] is report.TOOL_NAME
    monkeypatch.setattr(producer, "SCHEMA_VERSION", "9.9")
    monkeypatch.setattr(producer, "TOOL_NAME", "renamed")
    document = CASES[name][1]()
    assert (document["version"], document["tool"]["name"]) == ("9.9", "renamed")
