"""Streaming detection with time-variant trust (paper §V, §VIII).

The paper argues that autonomous systems need *onboard, online*
intrusion detection — alarms raised from live telemetry, not forensic
replays — wired into the degradation ladder so detection changes what
the vehicle *does*.  This package provides:

* :mod:`repro.sentinel.detectors` — per-layer threshold detectors over
  typed telemetry records or :mod:`repro.obs` event streams (CAN
  frame-rate storms, SecOC auth bursts, UWB ranging residuals, cloud
  error/latency budgets, DID resolution failures);
* :mod:`repro.sentinel.alarms` — hysteretic per-``(source, detector)``
  alarm state machines (IDLE → SUSPECT → ALARM → CLEARED) with hard
  physics gates that jump straight to ALARM;
* :mod:`repro.sentinel.trust` — time-variant per-source trust: EMA
  smoothing, weighted-MAX risk fusion, cold-start → verifying →
  trusted phases, decay without reinforcement, collapse alerts;
* :mod:`repro.sentinel.correlator` — cross-layer cascade correlation
  of co-occurring alarms along :mod:`repro.flow` graph edges into
  campaign-level incidents;
* :mod:`repro.sentinel.engine` — :class:`SentinelEngine`, the
  streaming core that takes typed records from a scenario runner or
  subscribes to a live :class:`~repro.obs.events.EventLog`, and closes
  the loop into
  :class:`~repro.core.response.ResponseEngine` /
  :class:`~repro.faults.degradation.DegradationManager`;
* :mod:`repro.sentinel.campaign` — the five scenarios streamed through
  the engine under :mod:`repro.faults` chaos plans
  (``python -m repro sentinel``);
* :mod:`repro.sentinel.report` — the schema-validated sentinel JSON.
"""

from repro.sentinel.alarms import AlarmMachine, AlarmState
from repro.sentinel.campaign import run_sentinel_campaign, run_sentinel_scenario
from repro.sentinel.correlator import CascadeCorrelator, Incident
from repro.sentinel.detectors import (
    CanRateDetector,
    CloudBudgetDetector,
    DidResolutionDetector,
    RangingResidualDetector,
    SecocAuthDetector,
    Signal,
    default_detectors,
)
from repro.sentinel.engine import IGNORED_KINDS, MACHINE_PARAMS, SentinelEngine
from repro.sentinel.report import SentinelSchemaError, validate_sentinel_dict
from repro.sentinel.trust import (
    DEFAULT_WEIGHTS,
    TrustPhase,
    TrustRegistry,
    TrustScore,
)

__all__ = [
    "Signal",
    "CanRateDetector",
    "SecocAuthDetector",
    "RangingResidualDetector",
    "CloudBudgetDetector",
    "DidResolutionDetector",
    "default_detectors",
    "AlarmState",
    "AlarmMachine",
    "TrustPhase",
    "TrustScore",
    "TrustRegistry",
    "DEFAULT_WEIGHTS",
    "Incident",
    "CascadeCorrelator",
    "SentinelEngine",
    "MACHINE_PARAMS",
    "IGNORED_KINDS",
    "run_sentinel_scenario",
    "run_sentinel_campaign",
    "SentinelSchemaError",
    "validate_sentinel_dict",
]
