"""Sentinel report JSON: schema documentation and validation.

The sentinel document (version ``1.0``) follows the ``repro.faults``
chaos-report conventions — small, flat, stable::

    {
      "version": "1.0",
      "tool": {"name": "repro-sentinel", "version": "<package version>"},
      "plan": {"name", "window": {"start", "end"},
               "faults": [{"kind", "target", "layer", "start", "end",
                           "probability", "magnitude"}]},
      "baseSeed": <int>,
      "scenarios": [
        {"scenario", "description", "resilient", "durationTicks",
         "window": {"start", "end"},
         "faults": {"injected", "byKind"},
         "sentinel": {
           "eventsConsumed", "eventsEmitted", "firstAlarmT",
           "alarmTransitions", "alarmedSources",
           "machines": [{"source", "detector", "finalState",
                         "transitions", "firstAlarmT"}],
           "incidents": [{"id", "openedT", "closedT", "sources",
                          "alarmCount", "crossLayer"}],
           "trust": [{"source", "score", "minScore", "phase",
                      "observations", "hardHits", "collapsedT"}]},
         "response": {"alerts", "isolated"},
         "degradation": {"finalLevel", "minLevel",
                         "changes": [{"t", "level", "reason"}],
                         "timeToDegradeS", "timeToRecoverS"},
         "detection": {"alarmRaised", "firstAlarmT", "alarmIncidents",
                       "trustCollapsed", "safeStopT", "leadTicks",
                       "detectedBeforeSafeStop"}}
      ],
      "summary": {"scenarioCount", "alarmIncidents", "scenariosDetected",
                  "scenariosClean", "trustCollapsed"}
    }

:func:`validate_sentinel_dict` checks a parsed document against that
schema — including the recomputable cross-checks (detection fields
derive from the sentinel block, summary fields from the scenarios) —
and raises :class:`SentinelSchemaError` on any violation.  The CI
sentinel gate and the round-trip tests both call it.
"""

from __future__ import annotations

from repro.core.schema import (BOOL, COUNT, INT, NUMBER, STRING, TEXT, UNIT,
                               SchemaError, header, integer, join, list_of,
                               nullable, obj, one_of, require, validate)
from repro.faults.report import DEGRADATION, FAULTS, PLAN, SCENARIO_HEADER

__all__ = ["SentinelSchemaError", "validate_sentinel_dict",
           "SCHEMA_VERSION", "TOOL_NAME"]

SCHEMA_VERSION = "1.0"
TOOL_NAME = "repro-sentinel"

#: The shared :class:`~repro.core.schema.SchemaError`, under its old name.
SentinelSchemaError = SchemaError

_MAYBE_T = nullable(NUMBER)
_SORTED_NAMES = list_of(TEXT, sorted_by=lambda name: name)


def _check_incident(entry: dict, where: str) -> None:
    require(entry["closedT"] is None or entry["closedT"] >= entry["openedT"],
            where, "closedT must be null or >= openedT")
    require(entry["alarmCount"] >= len(entry["sources"]), where,
            "alarmCount must cover every source")
    require(entry["crossLayer"] == (len(entry["sources"]) > 1), where,
            "crossLayer must mean 'more than one source'")


def _check_trust(entry: dict, where: str) -> None:
    require(entry["minScore"] <= entry["score"], where,
            "minScore must not exceed score")
    require(entry["hardHits"] <= entry["observations"], where,
            "hardHits must not exceed observations")


def _check_sentinel(entry: dict, where: str) -> None:
    machines = entry["machines"]
    require(entry["alarmTransitions"]
            == sum(machine["transitions"] for machine in machines), where,
            "alarmTransitions must sum machine transitions")
    alarmed = {machine["source"] for machine in machines
               if machine["firstAlarmT"] is not None}
    require(entry["alarmedSources"] == sorted(alarmed), where,
            "alarmedSources must list machines that alarmed, sorted")
    for index, incident in enumerate(entry["incidents"]):
        require(incident["id"] == index + 1,
                join(join(where, "incidents"), index),
                "ids must be dense and 1-based")


_SENTINEL = obj({
    "eventsConsumed": COUNT, "eventsEmitted": COUNT, "alarmTransitions": COUNT,
    "firstAlarmT": _MAYBE_T, "alarmedSources": list_of(STRING),
    "machines": list_of(obj({
        "source": TEXT, "detector": TEXT, "transitions": COUNT,
        "finalState": one_of({"idle", "suspect", "alarm", "cleared"}),
        "firstAlarmT": _MAYBE_T,
    }), unique_by=lambda machine: (machine["source"], machine["detector"])),
    "incidents": list_of(obj({
        "id": integer(1), "openedT": NUMBER, "closedT": _MAYBE_T,
        "sources": list_of(TEXT, nonempty=True, sorted_by=lambda name: name),
        "alarmCount": COUNT, "crossLayer": BOOL,
    }, check=_check_incident)),
    "trust": list_of(obj({
        "source": TEXT, "score": UNIT, "minScore": UNIT,
        "phase": one_of({"cold-start", "verifying", "trusted"}),
        "observations": COUNT, "hardHits": COUNT, "collapsedT": _MAYBE_T,
    }, check=_check_trust), nonempty=True, sorted_by="source",
        unique_by="source"),
}, check=_check_sentinel)


def _check_detection(scenario: dict, where: str) -> None:
    entry, sentinel = scenario["detection"], scenario["sentinel"]
    where = join(where, "detection")
    require(entry["alarmRaised"] == (sentinel["firstAlarmT"] is not None),
            where, "alarmRaised must mirror sentinel.firstAlarmT")
    require(entry["firstAlarmT"] == sentinel["firstAlarmT"], where,
            "firstAlarmT must equal sentinel.firstAlarmT")
    require(entry["alarmIncidents"] == len(sentinel["incidents"]), where,
            "alarmIncidents must count sentinel.incidents")
    collapsed = sorted(trust["source"] for trust in sentinel["trust"]
                       if trust["collapsedT"] is not None)
    require(entry["trustCollapsed"] == collapsed, where,
            "trustCollapsed must list collapsed trust sources")
    safe_stop = next((change["t"] for change
                      in scenario["degradation"]["changes"]
                      if change["level"] == "safe_stop"), None)
    require(entry["safeStopT"] == safe_stop, where,
            "safeStopT must be the first safe_stop change")
    if entry["safeStopT"] is not None and entry["firstAlarmT"] is not None:
        require(entry["leadTicks"] == entry["safeStopT"] - entry["firstAlarmT"],
                where, "leadTicks must be safeStopT - firstAlarmT")
    else:
        require(entry["leadTicks"] is None, where,
                "leadTicks must be null without both endpoints")
    expected = (entry["alarmRaised"]
                and (entry["safeStopT"] is None
                     or entry["firstAlarmT"] < entry["safeStopT"]))
    require(entry["detectedBeforeSafeStop"] == expected, where,
            "detectedBeforeSafeStop is inconsistent")


_SCENARIO = obj({
    **SCENARIO_HEADER,
    "faults": FAULTS,
    "sentinel": _SENTINEL,
    "response": obj({"alerts": COUNT, "isolated": _SORTED_NAMES}),
    "degradation": DEGRADATION,
    "detection": obj({
        "alarmRaised": BOOL, "firstAlarmT": _MAYBE_T, "alarmIncidents": COUNT,
        "trustCollapsed": list_of(STRING), "safeStopT": _MAYBE_T,
        "leadTicks": _MAYBE_T, "detectedBeforeSafeStop": BOOL,
    }),
}, check=_check_detection)


def _check_summary(document: dict, where: str) -> None:
    scenarios, summary = document["scenarios"], document["summary"]
    detections = [(s["scenario"], s["detection"]) for s in scenarios]
    require(summary["scenarioCount"] == len(scenarios), where,
            "summary.scenarioCount must equal len(scenarios)")
    require(summary["alarmIncidents"]
            == sum(detection["alarmIncidents"] for _, detection in detections),
            where, "summary.alarmIncidents must sum the per-scenario totals")
    require(summary["scenariosDetected"]
            == sorted(name for name, d in detections if d["alarmRaised"]),
            where, "summary.scenariosDetected must list alarmed scenarios, "
            "sorted")
    require(summary["scenariosClean"]
            == sorted(name for name, d in detections if not d["alarmRaised"]),
            where, "summary.scenariosClean must list alarm-free scenarios, "
            "sorted")
    collapsed = {source for _, d in detections for source in d["trustCollapsed"]}
    require(summary["trustCollapsed"] == sorted(collapsed), where,
            "summary.trustCollapsed must union the per-scenario lists, sorted")


_DOCUMENT = obj({
    **header(SCHEMA_VERSION, TOOL_NAME),
    "plan": PLAN,
    "baseSeed": INT,
    "scenarios": list_of(_SCENARIO, nonempty=True, unique_by="scenario"),
    "summary": obj({
        "scenarioCount": COUNT, "alarmIncidents": COUNT,
        "scenariosDetected": list_of(STRING), "scenariosClean": list_of(STRING),
        "trustCollapsed": list_of(STRING),
    }),
}, check=_check_summary)


def validate_sentinel_dict(document: dict) -> None:
    """Raise :class:`SentinelSchemaError` unless ``document`` matches."""
    validate(document, _DOCUMENT)
