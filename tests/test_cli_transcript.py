"""Byte-for-byte transcript of the ``python -m repro`` CLI.

Every case runs one or more ``main(argv)`` invocations in-process, in
order, with every path under a fresh scratch directory, and pins each
one's stdout, stderr, exit code and the JSON files it wrote there against
``tests/data/cli_transcript.json``.  A second data file,
``tests/data/cli_parser_shape.json``, pins every subcommand's arguments
(option strings, dest, default, choices, nargs, const, required).

The scratch directory's path is replaced by ``<tmp>`` before comparing.
Only values that cannot repeat from run to run are masked (``MASKS``):

* trace span timings: JSON ``wallMs``/``cpuMs`` and the table's
  ``wall=``/``cpu=`` columns;
* campaign timings: the table's per-shard ``<seconds>s x<attempts>``
  column and the summary's ``in <seconds>s``.

Regenerate both data files (only when an output change is intended)::

    PYTHONPATH=src python -m tests.test_cli_transcript
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import tempfile
import textwrap
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main

DATA = Path(__file__).parent / "data"
TRANSCRIPT = DATA / "cli_transcript.json"
PARSER_SHAPE = DATA / "cli_parser_shape.json"

_NUMBER = r"-?[0-9.]+(?:[eE][-+]?[0-9]+)?"

#: (what, pattern, replacement) — applied to every captured text.
MASKS = [
    ("trace wallMs/cpuMs", re.compile(rf'("(?:wallMs|cpuMs)": ){_NUMBER}'),
     r"\1<ms>"),
    ("trace table wall=/cpu=",
     re.compile(rf"\b(wall|cpu)= *{_NUMBER}ms"), r"\1=<ms>"),
    ("campaign shard seconds", re.compile(r"\b[0-9]+\.[0-9]{3}s x([0-9]+)"),
     r"<s> x\1"),
    ("campaign wall seconds", re.compile(r"\bin [0-9]+\.[0-9]{2}s\b"),
     "in <s>"),
]

#: A small source tree for ``audit --root``: three rules fire on it.
AUDIT_TREE = {
    "repro/faults/jitter.py": """\
        import random

        def jitter() -> float:
            return random.random()
    """,
    "repro/core/acc.py": """\
        def collect(item, acc=[]):
            acc.append(item)
            return acc
    """,
    "repro/flow/report.py": """\
        def render(result) -> str:
            return str(result)
    """,
    "repro/lint/report.py": """\
        from repro.core.schema import validate

        LINT_SCHEMA_VERSION = "1.0"
        LINT_TOOL_NAME = "repro-lint"

        def validate_lint_dict(document: dict) -> None:
            validate(document, {})
    """,
}

_CAMPAIGN = ("campaign", "run", "--tools", "lint,flow", "--scenarios",
             "pkes-legacy,onboard-hardened", "--journal-root", "<tmp>/journals",
             "--name", "pinned")

#: case id -> the argv of each invocation, run in order in one directory.
CASES: dict[str, list[tuple[str, ...]]] = {
    "list": [("list",)],
    "help": [("--help",)],
    "help-subcommands": [(name, "--help") for name in (
        "run", "lint", "flow", "trace", "chaos", "redteam", "sentinel",
        "audit", "campaign")],
    "help-campaign": [("campaign", name, "--help")
                      for name in ("run", "resume", "status", "list")],
    "run-json": [("run", "FIG1", "--json", "--cache-dir", "<tmp>/cache")],
    "run-unknown": [("run", "FIG99")],
    "lint-one": [("lint", "pkes-legacy")],
    "lint-all": [("lint", "all")],
    "lint-json": [("lint", "cariad-breach", "--json", "--gate", "none")],
    "lint-sarif": [("lint", "cariad-breach", "--sarif", "--gate", "none")],
    "lint-gates": [("lint", "pkes-legacy", "--gate", "critical"),
                   ("lint", "pkes-legacy", "--gate", "none"),
                   ("lint", "onboard-hardened", "--gate", "info")],
    "lint-rules": [("lint", "--rules")],
    "lint-disable": [("lint", "pkes-legacy", "--disable", "DAT001"),
                     ("lint", "pkes-legacy", "--disable", "NOPE123")],
    "lint-baseline": [
        ("lint", "all", "--write-baseline", "<tmp>/lint-baseline.json"),
        ("lint", "all", "--baseline", "<tmp>/lint-baseline.json"),
        ("lint", "pkes-legacy", "--baseline", "<tmp>/missing.json")],
    "lint-errors": [("lint",), ("lint", "bogus")],
    "flow-one": [("flow", "onboard-insecure")],
    "flow-all": [("flow", "all")],
    "flow-paths-cut": [("flow", "onboard-insecure", "--paths", "--cut")],
    "flow-json": [("flow", "onboard-insecure", "--json", "--gate", "none")],
    "flow-sarif": [("flow", "onboard-insecure", "--sarif", "--gate", "none")],
    "flow-gates": [("flow", "onboard-insecure", "--gate", "critical"),
                   ("flow", "onboard-hardened", "--gate", "info")],
    "flow-baseline": [
        ("flow", "all", "--write-baseline", "<tmp>/flow-baseline.json"),
        ("flow", "all", "--baseline", "<tmp>/flow-baseline.json")],
    "flow-errors": [("flow",), ("flow", "bogus")],
    "trace-one": [("trace", "onboard-hardened")],
    "trace-all": [("trace", "all")],
    "trace-json": [("trace", "onboard-hardened", "--json")],
    "trace-flags": [("trace", "cariad-breach", "--timeline"),
                    ("trace", "onboard-insecure", "--metrics"),
                    ("trace", "onboard-insecure", "--events", "4", "--json")],
    "trace-errors": [("trace",), ("trace", "bogus")],
    "chaos-one": [("chaos", "onboard-hardened")],
    "chaos-all": [("chaos", "all")],
    "chaos-json": [("chaos", "pkes-legacy", "--plan", "severe", "--json")],
    "chaos-report": [("chaos", "maas-platform", "--base-seed", "3",
                      "--duration", "12", "--report", "<tmp>/chaos.json")],
    "chaos-errors": [("chaos",), ("chaos", "bogus"),
                     ("chaos", "pkes-legacy", "--plan", "bogus")],
    "redteam-one": [("redteam", "cariad-breach")],
    "redteam-all": [("redteam", "all")],
    "redteam-campaigns": [("redteam", "cariad-breach", "--campaigns",
                           "--top", "2")],
    "redteam-json": [("redteam", "cariad-breach", "--json", "--gate", "none")],
    "redteam-sarif": [("redteam", "cariad-breach", "--sarif", "--gate",
                       "none")],
    "redteam-gates": [("redteam", "cariad-breach", "--gate", "critical"),
                      ("redteam", "maas-platform", "--gate", "critical"),
                      ("redteam", "pkes-legacy", "--json", "--gate", "high")],
    "redteam-differential": [("redteam", "all", "--differential")],
    "redteam-errors": [("redteam",), ("redteam", "bogus")],
    "sentinel-one": [("sentinel", "onboard-insecure", "--plan", "severe")],
    "sentinel-all": [("sentinel", "all")],
    "sentinel-json": [("sentinel", "onboard-insecure", "--plan", "severe",
                       "--json")],
    "sentinel-trust-alarms": [("sentinel", "pkes-legacy", "--plan", "severe",
                               "--trust", "--alarms")],
    "sentinel-gates": [("sentinel", "onboard-hardened", "--gate", "clean"),
                       ("sentinel", "onboard-insecure", "--gate", "clean"),
                       ("sentinel", "pkes-legacy", "--plan", "severe",
                        "--gate", "detect"),
                       ("sentinel", "onboard-hardened", "--plan", "severe",
                        "--gate", "detect")],
    "sentinel-report": [("sentinel", "cariad-breach", "--duration", "12",
                         "--report", "<tmp>/sentinel.json")],
    "sentinel-errors": [("sentinel",), ("sentinel", "bogus"),
                        ("sentinel", "pkes-legacy", "--plan", "bogus")],
    "audit-table": [("audit", "--root", "<tmp>/tree/repro")],
    "audit-json": [("audit", "--root", "<tmp>/tree/repro", "--json")],
    "audit-sarif": [("audit", "--root", "<tmp>/tree/repro", "--sarif")],
    "audit-gates": [("audit", "--root", "<tmp>/tree/repro", "--gate"),
                    ("audit", "--root", "<tmp>/tree/repro", "--gate",
                     "critical")],
    "audit-rules": [("audit", "--rules")],
    "audit-baseline": [
        ("audit", "--root", "<tmp>/tree/repro", "--write-baseline",
         "<tmp>/audit-baseline.json"),
        ("audit", "--root", "<tmp>/tree/repro", "--gate", "--baseline",
         "<tmp>/audit-baseline.json")],
    "audit-baseline-sarif": [
        ("audit", "--root", "<tmp>/tree/repro", "--write-baseline",
         "<tmp>/audit-baseline.json"),
        ("audit", "--root", "<tmp>/tree/repro", "--baseline",
         "<tmp>/audit-baseline.json", "--sarif")],
    "campaign-journal": [
        _CAMPAIGN,
        ("campaign", "status", "pinned", "--journal-root", "<tmp>/journals"),
        ("campaign", "list", "--journal-root", "<tmp>/journals"),
        ("campaign", "resume", "pinned", "--journal-root", "<tmp>/journals",
         "--report", "<tmp>/campaign.json"),
        _CAMPAIGN],
    "campaign-errors": [
        ("campaign", "status", "nope", "--journal-root", "<tmp>/journals"),
        ("campaign", "run", "--tools", "fuzzer"),
        ("campaign", "run", "--scenarios", "nope"),
        ("campaign", "run", "--plans", "nope"),
        ("campaign", "list", "--journal-root", "<tmp>/journals")],
}


def _mask(text: str, tmp: Path) -> list[str]:
    text = text.replace(str(tmp), "<tmp>")
    for _, pattern, replacement in MASKS:
        text = pattern.sub(replacement, text)
    return text.split("\n")


def _write_tree(root: Path) -> None:
    for relative, source in AUDIT_TREE.items():
        path = root / "tree" / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))


def _invoke(argv: tuple[str, ...], tmp: Path) -> dict:
    concrete = [arg.replace("<tmp>", str(tmp)) for arg in argv]
    before = {p for p in tmp.rglob("*") if p.is_file()}
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(concrete)
        except SystemExit as exc:   # --help and argparse usage errors
            code = exc.code
    written = sorted(p for p in tmp.glob("*.json") if p not in before)
    return {
        "argv": list(argv),
        "exit": code,
        "stdout": _mask(out.getvalue(), tmp),
        "stderr": _mask(err.getvalue(), tmp),
        "files": {p.name: _mask(p.read_text(), tmp) for p in written},
    }


def run_case(case: str, tmp: Path) -> list[dict]:
    _write_tree(tmp)
    return [_invoke(argv, tmp) for argv in CASES[case]]


def _action_shape(action: argparse.Action) -> dict:
    return {"option_strings": list(action.option_strings),
            "dest": action.dest, "default": action.default,
            "choices": (None if action.choices is None
                        or isinstance(action, argparse._SubParsersAction)
                        else list(action.choices)),
            "nargs": action.nargs, "const": action.const,
            "required": action.required}


def parser_shape() -> dict:
    """``{"python -m repro lint": [action shape, ...], ...}``."""
    shapes: dict = {}

    def walk(parser: argparse.ArgumentParser) -> None:
        shapes[parser.prog] = [_action_shape(a) for a in parser._actions]
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    walk(sub)

    walk(build_parser())
    return shapes


@pytest.fixture
def columns(monkeypatch):
    # argparse wraps help text to the terminal width
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("case", sorted(CASES))
def test_transcript(case, tmp_path, columns):
    expected = json.loads(TRANSCRIPT.read_text())[case]
    assert run_case(case, tmp_path) == expected


def test_transcript_covers_every_case():
    assert sorted(json.loads(TRANSCRIPT.read_text())) == sorted(CASES)


def test_parser_shape():
    assert parser_shape() == json.loads(PARSER_SHAPE.read_text())


def _regenerate() -> None:  # pragma: no cover - maintenance entry point
    os.environ["COLUMNS"] = "80"
    transcript = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            transcript[case] = run_case(case, Path(tmp).resolve())
    TRANSCRIPT.write_text(json.dumps(transcript, indent=1) + "\n")
    PARSER_SHAPE.write_text(json.dumps(parser_shape(), indent=1) + "\n")


if __name__ == "__main__":
    _regenerate()
