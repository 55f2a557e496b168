"""Deterministic fault injection and resilience (paper §VIII).

The paper's fail-operational requirement — autonomous systems must
*degrade* under attack and partial failure, never just crash — is only
testable against injected faults.  This package provides:

* :mod:`repro.faults.plan` — the typed fault taxonomy
  (:class:`FaultKind`) and windowed, probabilistic campaign plans
  (``baseline`` and ``severe``);
* :mod:`repro.faults.injector` — :class:`FaultInjector`, per-``(kind,
  target)`` seeded firing decisions with zero ambient randomness, and a
  per-kind tally of the faults that fired;
* :mod:`repro.faults.resilience` — :func:`retry_with_backoff`,
  :class:`CircuitBreaker`, :class:`HealthMonitor`,
  all on a :class:`VirtualClock`;
* :mod:`repro.faults.degradation` — the FULL → DEGRADED → MINIMAL_RISK
  → SAFE_STOP ladder with hysteresis, fed by health signals and
  :class:`repro.core.response.ResponseEngine` escalations;
* :mod:`repro.faults.chaos` — the five :data:`repro.lint.SCENARIOS`
  run as chaos campaigns (``python -m repro chaos``);
* :mod:`repro.faults.report` — the schema-validated chaos JSON.
"""

from repro.faults.chaos import run_chaos_campaign, run_chaos_scenario
from repro.faults.degradation import DegradationManager, ServiceLevel
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    KIND_LAYER,
    FaultKind,
    FaultPlan,
    FaultSpec,
    baseline_plan,
    get_plan,
    plan_names,
    severe_plan,
)
from repro.faults.report import ChaosSchemaError, validate_chaos_dict
from repro.faults.resilience import (
    BreakerOpen,
    BreakerState,
    CircuitBreaker,
    HealthMonitor,
    RetryBudgetExceeded,
    RetryPolicy,
    RetryStats,
    VirtualClock,
    retry_with_backoff,
)

__all__ = [
    "FaultKind",
    "FaultSpec",
    "FaultPlan",
    "KIND_LAYER",
    "baseline_plan",
    "severe_plan",
    "get_plan",
    "plan_names",
    "FaultInjector",
    "VirtualClock",
    "RetryPolicy",
    "RetryStats",
    "RetryBudgetExceeded",
    "retry_with_backoff",
    "BreakerState",
    "BreakerOpen",
    "CircuitBreaker",
    "HealthMonitor",
    "ServiceLevel",
    "DegradationManager",
    "run_chaos_scenario",
    "run_chaos_campaign",
    "ChaosSchemaError",
    "validate_chaos_dict",
]
