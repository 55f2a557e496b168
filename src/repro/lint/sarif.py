"""Real SARIF 2.1.0 export for every static analyzer's report.

The ``--json`` reports (:mod:`repro.lint.report`,
:mod:`repro.audit.report`) are compact in-house schemas; this module
emits the actual OASIS `SARIF 2.1.0`_ shape so findings load into
standard tooling (GitHub code scanning, VS Code SARIF viewers, ...).
Lint, flow and redteam hand it their lint :class:`Report` and rules;
the self-audit hands it its own ``AuditReport`` and checkers, which
carry the same attributes.  The mapping:

* one ``run`` per report, ``tool.driver`` carrying the rule catalog as
  ``reportingDescriptor`` objects (title, full remediation text, the
  paper section under ``properties.paperRef``);
* one ``result`` per finding — ``ruleId``, SARIF ``level`` mapped from
  the severity ladder, the subject as a ``logicalLocation``; an audit
  finding, which names a source file and line, also gets a
  ``physicalLocation``;
* the stable lint fingerprint under ``partialFingerprints`` — the same
  value the baseline machinery keys on;
* baselined findings are still emitted, with a ``suppressions`` entry
  (kind ``external``), matching how SARIF models accepted findings.

:func:`validate_sarif_dict` structurally checks the emitted subset —
enough to keep the golden file and the CI gates honest without a full
JSON-schema engine.

.. _SARIF 2.1.0: https://docs.oasis-open.org/sarif/sarif/v2.1.0/
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.core.schema import (COUNT, STRING, TEXT, const, integer, join,
                               list_of, map_of, obj, one_of, require, validate)
from repro.lint.engine import Finding, Rule, Severity
from repro.lint.report import Report

if TYPE_CHECKING:  # pragma: no cover - repro.audit imports this module
    from repro.audit.engine import AuditFinding, Checker
    from repro.audit.report import AuditReport

__all__ = ["SARIF_VERSION", "SARIF_SCHEMA_URI", "to_sarif_dict",
           "validate_sarif_dict"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = ("https://docs.oasis-open.org/sarif/sarif/v2.1.0/errata01/"
                    "os/schemas/sarif-schema-2.1.0.json")
_TOOL_NAME = "repro-seclint"
#: Tools that share this SARIF emitter; ``to_sarif_dict(tool_name=...)``
#: must pick one of these so :func:`validate_sarif_dict` stays closed.
_KNOWN_TOOLS = frozenset({"repro-seclint", "repro-audit"})
_INFO_URI = "https://github.com/paper-repro/repro"

#: Severity -> SARIF level.  SARIF has no "critical"; both HIGH and
#: CRITICAL map to "error" and the precise severity rides along in the
#: result's properties bag.
_LEVELS: dict[Severity, str] = {
    Severity.INFO: "note",
    Severity.LOW: "note",
    Severity.MEDIUM: "warning",
    Severity.HIGH: "error",
    Severity.CRITICAL: "error",
}


def _descriptor(rule: Rule | Checker) -> dict:
    return {
        "id": rule.rule_id,
        "name": rule.title,
        "shortDescription": {"text": rule.title},
        "fullDescription": {"text": rule.remediation},
        "defaultConfiguration": {"level": _LEVELS[rule.severity]},
        "properties": {
            "layer": rule.layer.name.lower(),
            "paperRef": rule.paper_ref,
            "severity": rule.severity.name.lower(),
        },
    }


def _result(finding: Finding | AuditFinding, rule_index: dict[str, int], *,
            suppressed: bool, fingerprint_key: str) -> dict:
    location: dict = {
        "logicalLocations": [
            {"name": finding.subject, "kind": "resource"}
        ]
    }
    # An AuditFinding names a source file and line, so it also gets a
    # physicalLocation, which is what GitHub code scanning anchors
    # annotations on; a lint Finding names a system component and has
    # no path.
    path = getattr(finding, "path", "")
    if path:
        location["physicalLocation"] = {
            "artifactLocation": {"uri": path},
            "region": {"startLine": max(1, int(getattr(finding, "line", 1)))},
        }
    result = {
        "ruleId": finding.rule_id,
        "level": _LEVELS[finding.severity],
        "message": {"text": finding.message},
        "locations": [location],
        "partialFingerprints": {fingerprint_key: finding.fingerprint},
        "properties": {
            "layer": finding.layer.name.lower(),
            "paperRef": finding.paper_ref,
            "severity": finding.severity.name.lower(),
        },
    }
    if finding.rule_id in rule_index:
        result["ruleIndex"] = rule_index[finding.rule_id]
    if suppressed:
        result["suppressions"] = [
            {"kind": "external", "justification": "accepted via lint baseline"}
        ]
    return result


def to_sarif_dict(report: Report | AuditReport,
                  rules: Iterable[Rule | Checker] = (), *,
                  tool_name: str = _TOOL_NAME) -> dict:
    """Render ``report`` as a SARIF 2.1.0 log with one run."""
    from repro import __version__

    if tool_name not in _KNOWN_TOOLS:
        raise ValueError(f"unknown SARIF tool {tool_name!r}; "
                         f"expected one of {sorted(_KNOWN_TOOLS)}")
    short = tool_name.removeprefix("repro-")
    rule_list = list(rules)
    rule_index = {rule.rule_id: i for i, rule in enumerate(rule_list)}
    results = [_result(f, rule_index, suppressed=False,
                       fingerprint_key=f"{short}/v1")
               for f in report.findings]
    results += [_result(f, rule_index, suppressed=True,
                        fingerprint_key=f"{short}/v1")
                for f in report.suppressed]
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": tool_name,
                        "version": __version__,
                        "informationUri": _INFO_URI,
                        "rules": [_descriptor(rule) for rule in rule_list],
                    }
                },
                "automationDetails": {"id": f"{short}/{report.target_name}"},
                "results": results,
            }
        ],
    }


# --------------------------------------------------------------------------
# validation of the emitted subset
# --------------------------------------------------------------------------

_LEVEL = one_of({"none", "note", "warning", "error"})
_MESSAGE = obj({"text": STRING})
_PROPERTIES = obj({"layer": STRING, "paperRef": STRING, "severity": STRING})
_DESCRIPTOR = obj({
    "id": TEXT, "name": STRING, "shortDescription": _MESSAGE,
    "fullDescription": _MESSAGE, "properties": _PROPERTIES,
    "defaultConfiguration": obj({"level": _LEVEL}),
})
_LOCATION = obj(
    {"logicalLocations": list_of(obj({"name": TEXT, "kind": STRING}),
                                 nonempty=True)},
    optional={"physicalLocation": obj({
        "artifactLocation": obj({"uri": TEXT}),
        "region": obj({"startLine": integer(1)}),
    })})
_RESULT = obj(
    {"ruleId": TEXT, "level": _LEVEL, "message": _MESSAGE,
     "locations": list_of(_LOCATION, nonempty=True),
     "partialFingerprints": map_of(STRING, TEXT, nonempty=True),
     "properties": _PROPERTIES},
    optional={"ruleIndex": COUNT, "suppressions": list_of(obj({
        "kind": one_of({"inSource", "external"}), "justification": STRING}))})


def _check_rule_ids(run: dict, where: str) -> None:
    rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    for index, result in enumerate(run["results"]):
        require(not rule_ids or result["ruleId"] in rule_ids,
                join(join(where, "results"), index),
                f"ruleId {result['ruleId']!r} not in driver.rules")


_RUN = obj({
    "tool": obj({"driver": obj({
        "name": one_of(_KNOWN_TOOLS), "version": TEXT, "informationUri": STRING,
        "rules": list_of(_DESCRIPTOR, unique_by="id"),
    })}),
    "automationDetails": obj({"id": TEXT}),
    "results": list_of(_RESULT),
}, check=_check_rule_ids)
_LOG = obj({"$schema": const(SARIF_SCHEMA_URI), "version": const(SARIF_VERSION),
            "runs": list_of(_RUN)},
           check=lambda log, where: require(
               len(log["runs"]) == 1, join(where, "runs"),
               "exactly one run expected"))


def validate_sarif_dict(document: dict) -> None:
    """Raise :class:`~repro.core.schema.SchemaError` unless ``document``
    is valid SARIF-as-emitted."""
    validate(document, _LOG)
