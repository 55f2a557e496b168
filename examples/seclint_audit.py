#!/usr/bin/env python3
"""Example: static security-configuration analysis with `repro.lint` (§VIII).

The paper closes arguing that autonomous-system security must be
holistic: a misconfiguration at one layer silently undermines every
other layer's defenses.  The seclint rule catalog makes that argument a
tool — this walkthrough audits every shipped scenario, shows how the
intentionally-insecure setups light up across layers, how a suppression
baseline pins *expected* findings without hiding regressions, and that
the fully hardened §III deployment lints clean.

    python examples/seclint_audit.py
"""

from repro.lint import SCENARIOS, Baseline, Linter, Severity, build_scenario


def step1_audit_everything() -> None:
    print("\n--- 1. auditing every shipped scenario ---")
    linter = Linter()
    print(f"{'scenario':20s} {'findings':>8s} {'worst':>9s}  layers flagged")
    for scenario in SCENARIOS.values():
        report = linter.run(scenario.build())
        worst = report.worst_severity()
        layers = sorted({f.layer.name.lower() for f in report.findings})
        print(f"{scenario.name:20s} {len(report.findings):8d} "
              f"{(worst.name.lower() if worst else '-'):>9s}  "
              f"{', '.join(layers) or '-'}")
    print("=> misconfigurations at every layer are caught before any "
          "simulation runs")


def step2_cross_layer_story() -> None:
    print("\n--- 2. one insecure IVN, findings from four angles ---")
    report = Linter().run(build_scenario("onboard-insecure"))
    by_rule = {}
    for finding in report.findings:
        by_rule.setdefault(finding.rule_id, finding)
    for rule_id in sorted(by_rule):
        finding = by_rule[rule_id]
        print(f"  {rule_id} [{finding.severity.name.lower():8s}] "
              f"{finding.subject}: {finding.message[:60]}")
    print(f"=> {len(by_rule)} distinct rules fire on a single unprotected "
          f"zonal network")


def step3_baseline() -> None:
    print("\n--- 3. baselining an intentionally-insecure scenario ---")
    linter = Linter()
    first = linter.run(build_scenario("pkes-legacy"))
    baseline = Baseline.from_report(
        first, comment="intentional: the §II-A relay-attack victim")
    again = linter.run(build_scenario("pkes-legacy"), baseline=baseline)
    print(f"  without baseline: {len(first.findings)} findings "
          f"(exit {first.exit_code(Severity.LOW)})")
    print(f"  with baseline   : {len(again.findings)} findings, "
          f"{len(again.suppressed)} suppressed "
          f"(exit {again.exit_code(Severity.LOW)})")
    print("=> expected findings are pinned, new regressions still fail the "
          "gate")


def step4_hardened_gate() -> None:
    print("\n--- 4. the hardened deployment is the regression gate ---")
    report = Linter().run(build_scenario("onboard-hardened"))
    print(f"  {report.to_table()}")
    print("=> S1-S3 + SSI fully deployed: every one of the catalog's rules "
          "is satisfied")


def main() -> None:
    print("static security-configuration analysis walkthrough (paper §VIII)")
    step1_audit_everything()
    step2_cross_layer_story()
    step3_baseline()
    step4_hardened_gate()


if __name__ == "__main__":
    main()
