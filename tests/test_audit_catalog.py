"""Per-rule fixtures: every AUD checker fires on a violation and stays
quiet on the idiomatic fix.

``FIXTURES`` maps each rule id to one *positive* tree (must produce at
least one finding for that rule) and one *negative* tree (must produce
none); the meta-test at the bottom pins that every registered checker
has both, so a future PR cannot add an invariant without demonstrating
it actually fires.
"""

import textwrap

import pytest

from repro.audit import REGISTRY, AuditContext, AuditEngine, all_checkers


def _run_rule(tmp_path, rule_id, files):
    root = tmp_path / "repro"
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    context = AuditContext.parse(root)
    all_checkers()  # ensure the catalog has registered
    engine = AuditEngine([REGISTRY[rule_id]()])
    return engine.run(context)


#: rule id -> {"positive": tree, "negative": tree}
FIXTURES = {
    "AUD001": {
        "positive": {
            "faults/jitter.py": """\
                import random

                def jitter() -> float:
                    return random.random()
            """,
        },
        "negative": {
            "faults/jitter.py": """\
                import time

                def elapsed(start: float) -> float:
                    return time.monotonic() - start
            """,
        },
    },
    "AUD002": {
        "positive": {
            "ivn/noise.py": """\
                import numpy as np

                def noise():
                    return np.random.default_rng(7)
            """,
        },
        "negative": {
            # the sanctioned module may construct whatever it wants
            "core/rng.py": """\
                import numpy as np

                def numpy_rng(seed: int):
                    return np.random.default_rng(seed)
            """,
            "ivn/noise.py": """\
                from repro.core.rng import numpy_rng

                def noise(seed: int):
                    return numpy_rng(seed)
            """,
        },
    },
    "AUD003": {
        "positive": {
            "ivn/bus.py": """\
                from repro.obs.runtime import OBS

                def deliver(frame) -> None:
                    OBS.count("ivn.frames")
            """,
        },
        "negative": {
            "ivn/bus.py": """\
                from repro.obs.runtime import OBS

                def deliver(frame) -> None:
                    if OBS.enabled:
                        OBS.count("ivn.frames")

                def drain(frames) -> None:
                    if not OBS.enabled:
                        return
                    OBS.count("ivn.batch", len(frames))

                def _record(n: int) -> None:
                    OBS.count("ivn.helper", n)

                def tick(frames) -> None:
                    if OBS.enabled:
                        _record(len(frames))
            """,
        },
    },
    "AUD004": {
        "positive": {
            "lint/report.py": """\
                def to_table(findings):
                    kinds = {f.kind for f in findings}
                    return [str(kind) for kind in kinds]
            """,
        },
        "negative": {
            "lint/report.py": """\
                def to_table(findings):
                    kinds = {f.kind for f in findings}
                    return [str(kind) for kind in sorted(kinds)]
            """,
        },
    },
    "AUD005": {
        "positive": {
            "sentinel/probe.py": """\
                def probe(resolver, did):
                    try:
                        return resolver.resolve(did)
                    except Exception:
                        return None
            """,
        },
        "negative": {
            "sentinel/probe.py": """\
                from repro.ssi.registry import RegistryUnavailable

                def probe(resolver, did):
                    try:
                        return resolver.resolve(did)
                    except RegistryUnavailable:
                        return None
            """,
        },
    },
    "AUD006": {
        "positive": {
            "core/acc.py": """\
                def collect(item, acc=[]):
                    acc.append(item)
                    return acc
            """,
        },
        "negative": {
            "core/acc.py": """\
                def collect(item, acc=None):
                    if acc is None:
                        acc = []
                    acc.append(item)
                    return acc
            """,
        },
    },
    "AUD007": {
        "positive": {
            "flow/report.py": """\
                def render(result) -> str:
                    return str(result)
            """,
        },
        "negative": {
            "flow/report.py": """\
                from repro.core.schema import STRING, obj, validate

                FLOW_SCHEMA_VERSION = "1.0"
                FLOW_TOOL_NAME = "repro-flow"
                _DOCUMENT = obj({"version": STRING})

                def validate_flow_dict(document: dict) -> None:
                    validate(document, _DOCUMENT)
            """,
        },
    },
    "AUD008": {
        "positive": {
            "ivn/bus.py": """\
                from repro.sentinel.engine import SentinelEngine

                def watch(bus) -> SentinelEngine:
                    return SentinelEngine()
            """,
        },
        "negative": {
            "ivn/bus.py": """\
                from typing import TYPE_CHECKING

                if TYPE_CHECKING:
                    from repro.sentinel.engine import SentinelEngine

                def watch(bus) -> "SentinelEngine":
                    from repro.sentinel.engine import SentinelEngine

                    return SentinelEngine()
            """,
        },
    },
}


#: AUD007's schema check: a validator must hand a spec to
#: ``repro.core.schema.validate``, under whatever name it imports it.
_AUD007_HEADER = """\
    FLOW_SCHEMA_VERSION = "1.0"
    FLOW_TOOL_NAME = "repro-flow"
"""
AUD007_VALIDATORS = {
    "positive": {
        "hand-written": """\
            def validate_flow_dict(document: dict) -> None:
                if not isinstance(document, dict):
                    raise ValueError("not an object")
        """,
        "other-validate": """\
            from repro.lint.report import validate_report_dict as validate

            def validate_flow_dict(document: dict) -> None:
                validate(document)
        """,
    },
    "negative": {
        "module-alias": """\
            from repro.core import schema as spec

            def validate_flow_dict(document: dict) -> None:
                spec.validate(document, spec.obj({}))
        """,
        "lazy-import": """\
            def validate_flow_dict(document: dict) -> None:
                from repro.core.schema import validate as check

                check(document, {})
        """,
    },
}


@pytest.mark.parametrize("kind, case", [
    (kind, case) for kind in AUD007_VALIDATORS
    for case in AUD007_VALIDATORS[kind]])
def test_aud007_requires_a_schema_spec(tmp_path, kind, case):
    source = (textwrap.dedent(_AUD007_HEADER)
              + textwrap.dedent(AUD007_VALIDATORS[kind][case]))
    report = _run_rule(tmp_path, "AUD007", {"flow/report.py": source})
    messages = [f.message for f in report.findings]
    if kind == "positive":
        assert len(messages) == 1, messages
        assert "never calls repro.core.schema.validate" in messages[0]
        assert report.findings[0].line > 1
    else:
        assert not messages, messages


@pytest.mark.parametrize("rule_id", sorted(FIXTURES))
def test_positive_fixture_fires(rule_id, tmp_path):
    report = _run_rule(tmp_path, rule_id, FIXTURES[rule_id]["positive"])
    assert report.findings, f"{rule_id} did not fire on its positive fixture"
    assert all(f.rule_id == rule_id for f in report.findings)


@pytest.mark.parametrize("rule_id", sorted(FIXTURES))
def test_negative_fixture_stays_quiet(rule_id, tmp_path):
    report = _run_rule(tmp_path, rule_id, FIXTURES[rule_id]["negative"])
    messages = [f"{f.subject}: {f.message}" for f in report.findings]
    assert not messages, "\n".join(messages)


def test_every_registered_rule_has_fixtures():
    """A checker cannot ship without demonstrating it fires."""
    registered = {checker.rule_id for checker in all_checkers()}
    assert registered == set(FIXTURES)
    for rule_id, trees in FIXTURES.items():
        assert set(trees) == {"positive", "negative"}, rule_id


def test_catalog_has_at_least_eight_rules():
    assert len(all_checkers()) >= 8


def test_findings_carry_location_and_remediation(tmp_path):
    report = _run_rule(tmp_path, "AUD006", FIXTURES["AUD006"]["positive"])
    finding = report.findings[0]
    assert finding.path == "repro/core/acc.py"
    assert finding.line >= 1
    assert finding.remediation
    assert finding.subject == f"{finding.path}:{finding.line}"


def test_aud001_flags_builtin_hash(tmp_path):
    report = _run_rule(tmp_path, "AUD001", {"datalayer/ids.py": """\
        def pseudonym(vin: str) -> str:
            return f"anon-{hash(vin) & 0xFFFF:04x}"
    """})
    assert [(f.line, f.message) for f in report.findings] == [
        (2, "hash() of str/bytes is salted per process (use a hashlib digest)")]


def test_aud001_allows_hash_inside_dunder_hash(tmp_path):
    report = _run_rule(tmp_path, "AUD001", {"core/key.py": """\
        class Key:
            def __init__(self, name: str) -> None:
                self.name = name

            def __hash__(self) -> int:
                return hash(self.name)
    """})
    assert not report.findings
