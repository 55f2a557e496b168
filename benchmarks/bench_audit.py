"""BENCH-AUDIT — cost and stability of the self-audit engine.

The audit runs on every CI push and is meant to be cheap enough that
nobody ever hesitates to add a checker.  This bench pins three
properties:

1. **Full-tree cost.** Parsing every module under ``src/repro`` once
   plus running the whole catalog must complete well under a second.
2. **Parse-once contract.** The shared context is the expensive part;
   running the catalog over an already-parsed context must cost a
   fraction of the parse, so adding checkers stays near-free.
3. **Byte-identical output.** The JSON document for the same tree must
   not vary across runs — the audit is itself subject to the repo's
   determinism promise.

The measured numbers live in the tables the bench shows, which
``python -m repro run BENCH-AUDIT --json`` records as artifacts.
"""

from __future__ import annotations

import json

from repro.audit import AuditContext, AuditEngine, validate_audit_dict
from repro.experiments import best_of

#: Parse + full catalog over the shipped tree, per run (seconds) —
#: generous on CI hardware (the parse dominates; the catalog itself
#: runs in a fraction of it), tight enough to catch a checker that
#: starts re-walking the tree pathologically.
FULL_TREE_BUDGET_S = 1.5


def test_full_tree_audit_cost(show, benchmark):
    engine = AuditEngine()

    parse_s = best_of(AuditContext.parse)
    context = AuditContext.parse()
    check_s = best_of(lambda: engine.run(context))
    full_s = best_of(lambda: AuditEngine().run(AuditContext.parse()))
    report = engine.run(context)

    show("BENCH-AUDIT — full-tree self-audit",
         [("parse (shared context)", f"{parse_s * 1e3:7.2f}"),
          ("catalog over parsed context", f"{check_s * 1e3:7.2f}"),
          ("parse + catalog", f"{full_s * 1e3:7.2f}"),
          ("modules", report.modules_audited),
          ("checkers", len(report.rules_run)),
          ("findings", len(report.findings)),
          ("suppressed", len(report.suppressed))],
         header=("stage", "ms"))
    benchmark(lambda: engine.run(context))
    assert full_s < FULL_TREE_BUDGET_S, f"full audit took {full_s:.2f}s"
    # the parse-once contract: the catalog must not dominate the parse
    assert check_s < parse_s * 3, (
        f"catalog ({check_s * 1e3:.1f}ms) should stay within ~3x the parse "
        f"({parse_s * 1e3:.1f}ms); a checker is re-walking the tree "
        "pathologically")


def test_output_is_byte_identical(show):
    documents = []
    for _ in range(3):
        engine = AuditEngine()
        report = engine.run(AuditContext.parse())
        document = report.to_json_dict(engine.checkers)
        validate_audit_dict(document)
        documents.append(json.dumps(document, sort_keys=True))
    assert documents[0] == documents[1] == documents[2]
    show("BENCH-AUDIT — determinism",
         [("runs compared", 3),
          ("document bytes", len(documents[0])),
          ("byte-identical", "yes")],
         header=("property", "value"))


def test_shipped_tree_gates_clean():
    report = AuditEngine().run()
    assert report.exit_code() == 0, report.to_table()
