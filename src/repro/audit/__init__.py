"""repro.audit — plugin-based self-audit of the repo's own invariants.

The repo makes promises its unit tests cannot watch everywhere at once:
byte-identical outputs per ``(seed, scenario)``, <5% disabled-mode
observability overhead, typed fault taxonomies, versioned report
schemas, one-way layering.  ``repro.audit`` enforces them statically —
it parses every module under ``src/repro`` once into a shared
:class:`~repro.audit.context.AuditContext` and runs a registered
catalog of checkers (``AUD001`` …) over it, emitting findings as a
table, schema-validated JSON, or SARIF 2.1.0, with fingerprint
baselines and inline ``# audit: allow`` pragmas for deliberate
exceptions.

Quick use::

    from repro.audit import AuditEngine

    report = AuditEngine().run()       # audits the shipped src/repro tree
    assert report.exit_code() == 0

or from the command line: ``python -m repro audit --gate``.
"""

from __future__ import annotations

from repro.audit.context import AuditContext
from repro.audit.engine import (
    REGISTRY,
    AuditEngine,
    AuditFinding,
    Checker,
    all_checkers,
)
from repro.audit.report import (
    SchemaError,
    to_sarif_dict,
    validate_audit_dict,
)

__all__ = [
    "AuditContext",
    "AuditEngine",
    "AuditFinding",
    "Checker",
    "REGISTRY",
    "all_checkers",
    "SchemaError",
    "to_sarif_dict",
    "validate_audit_dict",
]
