"""``python -m repro audit`` end to end: exit codes, output modes,
baseline workflow, and the shipped tree's gate."""

import json
import textwrap

import pytest

from repro.__main__ import main
from repro.audit import validate_audit_dict
from repro.lint.sarif import validate_sarif_dict


@pytest.fixture
def dirty_root(tmp_path):
    root = tmp_path / "repro"
    (root / "ivn").mkdir(parents=True)
    (root / "ivn" / "noise.py").write_text(textwrap.dedent("""\
        import numpy as np

        def noise():
            return np.random.default_rng(7)
    """))
    return root


def test_shipped_tree_passes_the_gate(capsys):
    assert main(["audit", "--gate"]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_default_run_prints_table(capsys):
    assert main(["audit"]) == 0
    out = capsys.readouterr().out
    assert "modules" in out and "rules" in out


def test_dirty_tree_fails_the_gate(dirty_root, capsys):
    assert main(["audit", "--root", str(dirty_root), "--gate"]) == 1
    out = capsys.readouterr().out
    assert "AUD002" in out


def test_dirty_tree_without_gate_exits_zero(dirty_root, capsys):
    assert main(["audit", "--root", str(dirty_root)]) == 0
    assert "AUD002" in capsys.readouterr().out


def test_gate_threshold_is_respected(dirty_root, capsys):
    # AUD002 is high severity; a critical gate lets it through
    assert main(["audit", "--root", str(dirty_root),
                 "--gate", "critical"]) == 0
    assert main(["audit", "--root", str(dirty_root), "--gate", "high"]) == 1
    capsys.readouterr()


def test_json_output_validates(dirty_root, capsys):
    assert main(["audit", "--root", str(dirty_root), "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    validate_audit_dict(document)
    assert document["summary"]["byRule"] == {"AUD002": 1}
    assert {rule["id"] for rule in document["rules"]} >= {"AUD001", "AUD008"}


def test_sarif_output_validates(dirty_root, capsys):
    assert main(["audit", "--root", str(dirty_root), "--sarif"]) == 0
    document = json.loads(capsys.readouterr().out)
    validate_sarif_dict(document)
    assert document["runs"][0]["tool"]["driver"]["name"] == "repro-audit"


def test_rules_listing(capsys):
    assert main(["audit", "--rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("AUD001", "AUD008"):
        assert rule_id in out


def test_baseline_workflow(dirty_root, tmp_path, capsys):
    baseline = tmp_path / "audit-baseline.json"
    assert main(["audit", "--root", str(dirty_root),
                 "--write-baseline", str(baseline)]) == 0
    assert baseline.exists()
    # with the baseline, the same tree gates clean
    assert main(["audit", "--root", str(dirty_root),
                 "--baseline", str(baseline), "--gate"]) == 0
    out = capsys.readouterr().out
    assert "1 suppressed" in out


def test_bad_baseline_path_is_a_usage_error(dirty_root, capsys):
    assert main(["audit", "--root", str(dirty_root),
                 "--baseline", "/nonexistent/baseline.json"]) == 2
    assert "cannot load baseline" in capsys.readouterr().err


def test_syntax_error_in_root_is_a_usage_error(tmp_path, capsys):
    root = tmp_path / "repro"
    root.mkdir()
    (root / "broken.py").write_text("def f(:\n")
    assert main(["audit", "--root", str(root)]) == 2
    assert "cannot parse" in capsys.readouterr().err


@pytest.mark.parametrize("make", [lambda tmp: tmp / "missing",
                                  lambda tmp: tmp])
def test_a_root_without_modules_is_a_usage_error(make, tmp_path, capsys):
    # An audit of nothing must not pass the gate as "clean".
    root = make(tmp_path)
    (tmp_path / "notes.txt").write_text("no python here\n")
    assert main(["audit", "--root", str(root), "--gate"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "no Python modules to audit" in captured.err
