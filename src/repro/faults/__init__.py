"""Deterministic fault injection and resilience (paper §VIII).

The paper's fail-operational requirement — autonomous systems must
*degrade* under attack and partial failure, never just crash — is only
testable against injected faults.  This package provides:

* :mod:`repro.faults.plan` — the typed fault taxonomy
  (:class:`~repro.faults.plan.FaultKind`) and windowed, probabilistic
  campaign plans (``baseline`` and ``severe``);
* :mod:`repro.faults.injector` — :class:`~repro.faults.injector.FaultInjector`,
  per-``(kind, target)`` seeded firing decisions with zero ambient
  randomness, and a per-kind tally of the faults that fired;
* :mod:`repro.faults.resilience` — :func:`~repro.faults.resilience.retry_with_backoff`
  and :class:`~repro.faults.resilience.CircuitBreaker`, on a
  :class:`~repro.faults.resilience.VirtualClock`;
* :mod:`repro.faults.degradation` — the FULL → DEGRADED → MINIMAL_RISK
  → SAFE_STOP ladder with hysteresis, fed by windowed health signals
  and :class:`repro.core.response.ResponseEngine` escalations;
* :mod:`repro.faults.harness` — the fault-scenario fixtures and the
  campaign document that chaos and :mod:`repro.sentinel` share;
* :mod:`repro.faults.chaos` — the five :data:`repro.lint.SCENARIOS`
  run as chaos campaigns (``python -m repro chaos``);
* :mod:`repro.faults.report` — the schema-validated chaos JSON.

The package re-exports nothing: import each name from the module that
defines it.  A package ``__init__`` runs on the import of any of its
modules, so a re-export of the chaos stack would make a caller that
needs only the plan taxonomy (the campaign spec, the CLI) load the
datalayer, SSI and lint stacks with it.
"""
