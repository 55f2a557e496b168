"""Audit report contracts: golden JSON, schema validation, SARIF
round-trip, baselines, inline pragmas, and engine/registry hygiene."""

import json
import textwrap

import pytest

from repro.audit import (
    AuditContext,
    AuditEngine,
    AuditFinding,
    Checker,
    SchemaError,
    all_checkers,
    to_sarif_dict,
    validate_audit_dict,
)
from repro.audit.engine import register
from repro.core.layers import Layer
from repro.lint import Baseline, Severity
from repro.lint.sarif import validate_sarif_dict


@pytest.fixture
def dirty_tree(tmp_path):
    """A tree that trips AUD001 (stdlib random) and AUD006 (mutable
    default) — enough findings to exercise every report surface."""
    root = tmp_path / "repro"
    (root / "faults").mkdir(parents=True)
    (root / "faults" / "jitter.py").write_text(textwrap.dedent("""\
        import random

        def jitter(bins=[]):
            bins.append(random.random())
            return bins
    """))
    return root


def _report(root, baseline=None):
    engine = AuditEngine()
    context = AuditContext.parse(root)
    return engine, engine.run(context, baseline=baseline)


# -- JSON ------------------------------------------------------------------


def test_json_document_validates(dirty_tree):
    engine, report = _report(dirty_tree)
    document = report.to_json_dict(engine.checkers)
    validate_audit_dict(document)
    assert document["summary"]["total"] == len(report.findings)
    assert document["summary"]["byRule"].keys() >= {"AUD001", "AUD006"}
    assert [r["id"] for r in document["rules"]] == sorted(
        r["id"] for r in document["rules"])


def test_json_output_is_byte_identical_across_runs(dirty_tree):
    engine1, report1 = _report(dirty_tree)
    engine2, report2 = _report(dirty_tree)
    assert (json.dumps(report1.to_json_dict(engine1.checkers), sort_keys=True)
            == json.dumps(report2.to_json_dict(engine2.checkers),
                          sort_keys=True))


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("version"),
    lambda d: d.update(version="99.0"),
    lambda d: d["tool"].update(name="other-tool"),
    lambda d: d.update(extra=1),
    lambda d: d["summary"].update(total=999),
    lambda d: d["audited"].update(modules=999),
    lambda d: d["findings"][0].pop("fingerprint"),
    lambda d: d["findings"][0].update(line=0),
    lambda d: d["findings"][0].update(severity="terrible"),
    lambda d: d["findings"][0].update(ruleId="SEC001"),
    # byRule still sums to total, but names rules that never fired
    lambda d: d["summary"].update(byRule={
        rule.replace("AUD", "AUD9"): count
        for rule, count in d["summary"]["byRule"].items()}),
])
def test_schema_rejects_mutations(dirty_tree, mutate):
    engine, report = _report(dirty_tree)
    document = report.to_json_dict(engine.checkers)
    mutate(document)
    with pytest.raises(SchemaError):
        validate_audit_dict(document)


# -- SARIF -----------------------------------------------------------------


def test_sarif_round_trip(dirty_tree):
    engine, report = _report(dirty_tree)
    document = to_sarif_dict(report, engine.checkers)
    validate_sarif_dict(document)
    run = document["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-audit"
    assert len(run["results"]) == len(report.findings)
    first = run["results"][0]
    location = first["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"].endswith("jitter.py")
    assert location["region"]["startLine"] >= 1
    assert "audit/v1" in first["partialFingerprints"]


def test_sarif_fingerprints_match_audit_fingerprints(dirty_tree):
    engine, report = _report(dirty_tree)
    document = to_sarif_dict(report, engine.checkers)
    sarif_prints = {result["partialFingerprints"]["audit/v1"]
                    for result in document["runs"][0]["results"]}
    assert sarif_prints == {f.fingerprint for f in report.findings}


# -- baselines -------------------------------------------------------------


def test_baseline_round_trip_suppresses_everything(dirty_tree, tmp_path):
    engine, report = _report(dirty_tree)
    assert report.findings
    baseline = Baseline.from_report(report, comment="accepted")
    path = tmp_path / "audit-baseline.json"
    baseline.save(path)

    _, gated = _report(dirty_tree, baseline=Baseline.load(path))
    assert not gated.findings
    assert len(gated.suppressed) == len(report.findings)
    assert gated.exit_code() == 0


def test_baseline_does_not_hide_new_findings(dirty_tree, tmp_path):
    engine, report = _report(dirty_tree)
    baseline = Baseline.from_report(report)
    (dirty_tree / "faults" / "fresh.py").write_text(
        "import random\nx = random.random()\n")
    _, gated = _report(dirty_tree, baseline=baseline)
    assert gated.findings  # the new file is not in the baseline
    assert all(f.path.endswith("fresh.py") for f in gated.findings)


def test_fingerprint_survives_line_moves(dirty_tree):
    _, before = _report(dirty_tree)
    source = (dirty_tree / "faults" / "jitter.py").read_text()
    (dirty_tree / "faults" / "jitter.py").write_text(
        '"""Docstring pushes every line down."""\n\n' + source)
    _, after = _report(dirty_tree)
    assert ({f.fingerprint for f in before.findings}
            == {f.fingerprint for f in after.findings})
    assert ({f.line for f in before.findings}
            != {f.line for f in after.findings})


# -- inline pragmas --------------------------------------------------------


def test_inline_pragma_moves_finding_to_suppressed(tmp_path):
    root = tmp_path / "repro"
    (root / "faults").mkdir(parents=True)
    (root / "faults" / "guard.py").write_text(textwrap.dedent("""\
        def observe(op):
            try:
                return op()
            except Exception:  # audit: allow AUD005 observed then re-raised
                raise
    """))
    _, report = _report(root)
    assert not report.findings
    assert [f.rule_id for f in report.suppressed] == ["AUD005"]


def test_pragma_on_preceding_line_counts(tmp_path):
    root = tmp_path / "repro"
    (root / "faults").mkdir(parents=True)
    (root / "faults" / "guard.py").write_text(textwrap.dedent("""\
        def observe(op):
            try:
                return op()
            # audit: allow AUD005 observed then re-raised
            except Exception:
                raise
    """))
    _, report = _report(root)
    assert not report.findings
    assert [f.rule_id for f in report.suppressed] == ["AUD005"]


def test_pragma_for_wrong_rule_does_not_suppress(tmp_path):
    root = tmp_path / "repro"
    (root / "faults").mkdir(parents=True)
    (root / "faults" / "guard.py").write_text(textwrap.dedent("""\
        def observe(op):
            try:
                return op()
            except Exception:  # audit: allow AUD001 wrong rule named
                raise
    """))
    _, report = _report(root)
    assert [f.rule_id for f in report.findings] == ["AUD005"]


# -- engine / registry hygiene ---------------------------------------------


def test_exit_code_gates_on_severity(dirty_tree):
    _, report = _report(dirty_tree)
    assert report.exit_code() == 1
    assert report.exit_code(Severity.CRITICAL) == 0
    assert report.exit_code(None) == 0


def test_engine_rejects_duplicate_checkers():
    checkers = all_checkers()
    with pytest.raises(ValueError, match="duplicate"):
        AuditEngine([checkers[0], checkers[0]])


def test_register_rejects_bad_rule_ids():
    class Nameless(Checker):
        rule_id = "XYZ001"
        title = "t"
        remediation = "r"

    with pytest.raises(ValueError, match="AUD001"):
        register(Nameless)


def test_findings_are_sorted_deterministically(dirty_tree):
    _, report = _report(dirty_tree)
    key = [(f.rule_id, f.path, f.line, f.message) for f in report.findings]
    assert key == sorted(key)


def test_audit_finding_to_dict_shape():
    finding = AuditFinding(rule_id="AUD001", severity=Severity.HIGH,
                           layer=Layer.SYSTEM_OF_SYSTEMS, path="repro/x.py",
                           line=3, message="m", paper_ref="§VIII",
                           remediation="r")
    document = finding.to_dict()
    assert set(document) == {"ruleId", "severity", "path", "line",
                             "message", "remediation", "fingerprint"}
    assert len(document["fingerprint"]) == 16
