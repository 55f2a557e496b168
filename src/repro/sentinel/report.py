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

The producer fills each ``detection`` with :func:`detection` and the
``summary`` with :func:`sentinel_summary`; the validator checks both
against the same functions.  :func:`validate_sentinel_dict` checks a
parsed document against that schema and raises
:class:`SentinelSchemaError` on any violation.  The CI sentinel gate
and the round-trip tests both call it.
"""

from __future__ import annotations

from repro.core.schema import (BOOL, COUNT, INT, NUMBER, STRING, TEXT, UNIT,
                               SchemaError, derived, header, integer, join,
                               list_of, nullable, obj, one_of, require,
                               validate)
from repro.faults.report import DEGRADATION, FAULTS, PLAN, SCENARIO_HEADER

__all__ = ["SentinelSchemaError", "validate_sentinel_dict", "detection",
           "sentinel_summary", "SCHEMA_VERSION", "TOOL_NAME"]

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


def detection(scenario: dict) -> dict:
    """A scenario's ``detection`` block, from ``sentinel`` and ``degradation``."""
    sentinel = scenario["sentinel"]
    first_alarm = sentinel["firstAlarmT"]
    safe_stop = next((change["t"] for change
                      in scenario["degradation"]["changes"]
                      if change["level"] == "safe_stop"), None)
    both = first_alarm is not None and safe_stop is not None
    return {
        "alarmRaised": first_alarm is not None,
        "firstAlarmT": first_alarm,
        "alarmIncidents": len(sentinel["incidents"]),
        "trustCollapsed": sorted(trust["source"] for trust in sentinel["trust"]
                                 if trust["collapsedT"] is not None),
        "safeStopT": safe_stop,
        "leadTicks": safe_stop - first_alarm if both else None,
        "detectedBeforeSafeStop": (first_alarm is not None
                                   and (safe_stop is None
                                        or first_alarm < safe_stop)),
    }


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
}, check=derived("detection", detection))


def sentinel_summary(document: dict) -> dict:
    """The ``summary`` block, from each scenario's ``detection``."""
    detections = [(scenario["scenario"], scenario["detection"])
                  for scenario in document["scenarios"]]
    return {
        "scenarioCount": len(detections),
        "alarmIncidents": sum(entry["alarmIncidents"]
                              for _, entry in detections),
        "scenariosDetected": sorted(name for name, entry in detections
                                    if entry["alarmRaised"]),
        "scenariosClean": sorted(name for name, entry in detections
                                 if not entry["alarmRaised"]),
        "trustCollapsed": sorted({source for _, entry in detections
                                  for source in entry["trustCollapsed"]}),
    }


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
}, check=derived("summary", sentinel_summary))


def validate_sentinel_dict(document: dict) -> None:
    """Raise :class:`SentinelSchemaError` unless ``document`` matches."""
    validate(document, _DOCUMENT)
