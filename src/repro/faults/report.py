"""Chaos report JSON: schema documentation and validation.

The chaos document (version ``1.0``) mirrors the ``repro.lint`` /
``repro.obs`` / ``repro.campaign`` report conventions — small, flat,
stable::

    {
      "version": "1.0",
      "tool": {"name": "repro-chaos", "version": "<package version>"},
      "plan": {"name", "window": {"start", "end"},
               "faults": [{"kind", "target", "layer", "start", "end",
                           "probability", "magnitude"}]},
      "baseSeed": <int>,
      "scenarios": [
        {"scenario", "description", "resilient", "durationTicks",
         "window": {"start", "end"},
         "layers": [{"layer", "attempts", "successes", "availability",
                     "windowAttempts", "windowSuccesses",
                     "windowAvailability"}],
         "faults": {"injected", "byKind"},
         "retry": {"calls", "attempts", "retries", "recovered", "exhausted"},
         "breakers": [{"name", "opens", "rejections", "finalState"}],
         "ssi": null | {"hits", "staleHits", "failures", "cached"},
         "alerts": <int>,
         "degradation": {"finalLevel", "minLevel",
                         "changes": [{"t", "level", "reason"}],
                         "timeToDegradeS", "timeToRecoverS"}}
      ],
      "summary": {"scenarioCount", "faultsInjected", "layersSustained",
                  "scenariosAtMinimalRiskOrBelow"}
    }

The producer fills ``summary`` with :func:`chaos_summary` and the
validator checks it against the same function.
:func:`validate_chaos_dict` checks a parsed document against that
schema and raises :class:`ChaosSchemaError` on any violation — the CI
chaos gate and the round-trip tests both call it.
"""

from __future__ import annotations

from repro.core.layers import Layer
from repro.core.schema import (BOOL, COUNT, INT, NUMBER, STRING, TEXT, UNIT,
                               SchemaError, derived, header, integer, list_of,
                               map_of, nullable, number, obj, one_of, require,
                               validate)
from repro.faults.plan import FaultKind

__all__ = ["ChaosSchemaError", "validate_chaos_dict", "chaos_summary",
           "SCHEMA_VERSION", "TOOL_NAME", "PLAN", "SCENARIO_HEADER",
           "FAULTS", "DEGRADATION"]

SCHEMA_VERSION = "1.0"
TOOL_NAME = "repro-chaos"

#: The shared :class:`~repro.core.schema.SchemaError`, under its old name.
ChaosSchemaError = SchemaError

_LAYER = one_of({layer.name.lower() for layer in Layer})
_KIND = one_of({kind.value for kind in FaultKind})
_LEVEL = one_of({"full", "degraded", "minimal_risk", "safe_stop"})

# -- the plan and scenario pieces shared with repro.sentinel.report -----------

WINDOW = obj({"start": NUMBER, "end": NUMBER}, check=lambda w, where: require(
    w["start"] <= w["end"], where, "window start must not exceed end"))
PLAN = obj({"name": TEXT, "window": WINDOW, "faults": list_of(obj(
    {"kind": _KIND, "target": TEXT, "layer": _LAYER, "start": NUMBER,
     "end": NUMBER, "probability": UNIT, "magnitude": number(0)},
    check=lambda spec, where: require(
        spec["start"] < spec["end"], where, "window must satisfy start < end"),
), nonempty=True)})
#: The fields that open every chaos and sentinel scenario entry.
SCENARIO_HEADER = {"scenario": TEXT, "description": TEXT, "resilient": BOOL,
                   "durationTicks": integer(1), "window": WINDOW}
FAULTS = obj({"injected": COUNT, "byKind": map_of(_KIND, integer(1))},
             check=lambda faults, where: require(
                 sum(faults["byKind"].values()) == faults["injected"], where,
                 "byKind must sum to faults.injected"))
DEGRADATION = obj({
    "finalLevel": _LEVEL, "minLevel": _LEVEL,
    "changes": list_of(obj({"t": NUMBER, "level": _LEVEL, "reason": TEXT})),
    "timeToDegradeS": nullable(NUMBER), "timeToRecoverS": nullable(NUMBER),
})

# -- the chaos document --------------------------------------------------------


def _check_layer(entry: dict, where: str) -> None:
    require(entry["successes"] <= entry["attempts"], where,
            "successes must not exceed attempts")
    require(entry["windowSuccesses"] <= entry["windowAttempts"], where,
            "windowSuccesses must not exceed windowAttempts")
    require(entry["windowAttempts"] <= entry["attempts"], where,
            "windowAttempts must not exceed attempts")


_SCENARIO = obj({
    **SCENARIO_HEADER,
    "layers": list_of(obj({
        "layer": _LAYER, "attempts": COUNT, "successes": COUNT,
        "availability": UNIT, "windowAttempts": COUNT,
        "windowSuccesses": COUNT, "windowAvailability": UNIT,
    }, check=_check_layer), nonempty=True, unique_by="layer"),
    "faults": FAULTS,
    "retry": obj({key: COUNT for key in ("calls", "attempts", "retries",
                                         "recovered", "exhausted")}),
    "breakers": list_of(obj({
        "name": TEXT, "opens": COUNT, "rejections": COUNT,
        "finalState": one_of({"closed", "open", "half-open"}),
    })),
    "ssi": nullable(obj({key: COUNT for key in ("hits", "staleHits",
                                                "failures", "cached")})),
    "alerts": COUNT,
    "degradation": DEGRADATION,
})


def chaos_summary(document: dict) -> dict:
    """The ``summary`` block, from the scenarios."""
    scenarios = document["scenarios"]
    return {
        "scenarioCount": len(scenarios),
        "faultsInjected": sum(scenario["faults"]["injected"]
                              for scenario in scenarios),
        "layersSustained": sorted({
            layer["layer"] for scenario in scenarios
            for layer in scenario["layers"]
            if layer["windowAttempts"] > 0
            and layer["windowAvailability"] > 0.0}),
        "scenariosAtMinimalRiskOrBelow": sorted(
            scenario["scenario"] for scenario in scenarios
            if scenario["degradation"]["minLevel"]
            in ("minimal_risk", "safe_stop")),
    }


_DOCUMENT = obj({
    **header(SCHEMA_VERSION, TOOL_NAME),
    "plan": PLAN,
    "baseSeed": INT,
    "scenarios": list_of(_SCENARIO, nonempty=True, unique_by="scenario"),
    "summary": obj({
        "scenarioCount": COUNT, "faultsInjected": COUNT,
        "layersSustained": list_of(STRING),
        "scenariosAtMinimalRiskOrBelow": list_of(STRING),
    }),
}, check=derived("summary", chaos_summary))


def validate_chaos_dict(document: dict) -> None:
    """Raise :class:`ChaosSchemaError` unless ``document`` matches."""
    validate(document, _DOCUMENT)
