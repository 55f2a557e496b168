#!/usr/bin/env python3
"""Example: a full-stack attack story, red team vs blue team (paper §VIII).

The paper's closing demand is a security posture that is "holistic and
multi-layered ... able to detect attacks at their earliest stages and
respond effectively across the multiple levels".  This walkthrough plays
one incident across four layers of the reproduction:

1. [data]     the attacker breaches the telemetry backend (Fig. 8 chain);
2. [sos]      from that foothold, how far could the breach cascade?
3. [network]  the attacker pivots into the vehicle and injects CAN
              frames; the IDS detects and the response engine isolates;
4. [holistic] the cross-layer assessment: which defenses mattered;
5. [timeline] the incident replayed as one `repro.obs` cross-layer
              timeline — kill-chain steps, masquerade alert, and the
              response action merged onto a single clock;
6. [static]   the epilogue: `repro.flow` proves — without running
              anything — that the deployed configuration admitted the
              incident's path, and names the minimal set of edges whose
              hardening would have cut it;
7. [chaos]    the drill: the same incident weather, injected as a
              deterministic fault campaign (`repro.faults`) against the
              insecure and hardened postures — one collapses to
              safe-stop, the other degrades, rides it out, and recovers;
8. [red team] the planner: `repro.redteam` reconstructs the whole
              campaign from the attacker's side — cheapest ranked
              multi-stage plan per target, the defense that breaks each
              hop, and the differential gate proving the three static
              analyzers (lint, flow, redteam) agree.

    python examples/full_stack_attack_story.py
"""

from repro.core.analysis import LayeredSecurityAnalyzer
from repro.core.attackgraph import AttackGraph
from repro.core.layers import Layer
from repro.core.response import ResponseEngine, SecurityAlert, Severity
from repro.core.threats import default_catalog
from repro.datalayer import run_breach
from repro.flow import analyze
from repro.lint.scenarios import build_scenario
from repro.ivn import FrequencyIds, SenderFingerprintIds
from repro.ivn.streams import run_dos_response_experiment
from repro.obs import Timeline, instrumented
from repro.sos import CascadeSimulator, build_maas_sos


def act1_the_breach() -> None:
    print("\n--- act 1 [data layer]: the backend falls (Fig. 8) ---")
    report = run_breach(n_vehicles=25, days=14)
    for i, stage in enumerate(report.stage_results, 1):
        print(f"  {i}. {stage.stage:24s} {'OK' if stage.succeeded else 'FAIL'}")
    print(f"  => {report.records_exfiltrated} records exfiltrated; the "
          f"attacker now holds backend credentials")


def act2_the_stakes() -> None:
    print("\n--- act 2 [system of systems]: what is now at stake (Fig. 9) ---")
    model = build_maas_sos()
    cascade = CascadeSimulator(model, seed_label="story").run(
        "cloud-backend", trials=300)
    print(f"  cascade from the breached backend: mean blast radius "
          f"{cascade.mean_blast_radius:.1f}/{len(model.systems())} systems")
    print(f"  P[safety-critical subsystem hit] = {cascade.p_safety_critical_hit:.0%}")
    graph = AttackGraph(model.to_system_model())
    path = graph.most_likely_path("safety-functions", source="cloud-backend")
    if path:
        print(f"  most likely path to the brakes: {' -> '.join(path.nodes)} "
              f"(p={path.probability:.2f})")


def act3_the_pivot() -> None:
    print("\n--- act 3 [network layer]: the pivot into the vehicle ---")
    # The attacker reaches a zone and floods / masquerades; the blue
    # team's IDS + response engine close the loop.
    report = run_dos_response_experiment(duration_s=1.0)
    print(f"  flood begins at t=300 ms; detection at "
          f"t={report.detection_time_s * 1e3:.0f} ms, isolation at "
          f"t={report.isolation_time_s * 1e3:.0f} ms")
    print(f"  deadline misses: {report.miss_rate_attack_no_response:.0%} "
          f"without response -> {report.miss_rate_attack_with_response:.0%} with")

    easi = SenderFingerprintIds(seed_label="story")
    easi.register_node("brake-ecu", 1.0)
    easi.register_node("compromised-tcu", 2.8)
    easi.register_id(0x0A0, "brake-ecu")
    alert = easi.observe(0x0A0, "compromised-tcu", 0.5)
    print(f"  masquerade attempt on the brake id: "
          f"{'flagged — ' + alert.reason if alert else 'missed'}")

    engine = ResponseEngine(critical_components={"brake-ecu"})
    decision = engine.handle(SecurityAlert(0.5, Layer.NETWORK,
                                           "compromised-tcu", "can-masquerade",
                                           Severity.CRITICAL))
    print(f"  response engine: {decision.action.name} on the offending unit")


def act4_the_postmortem() -> None:
    print("\n--- act 4 [holistic]: the postmortem (§VIII) ---")
    catalog = default_catalog()
    analyzer = LayeredSecurityAnalyzer(catalog)
    network_only = {d.name for d in catalog.defenses_on_layer(Layer.NETWORK)}
    partial = analyzer.assess(network_only)
    full = analyzer.assess()
    print(f"  with network-layer defenses only: "
          f"{len(partial.residual_attacks)} of {len(catalog.attacks)} attacks "
          f"remain (weakest layer: {partial.weakest_layer.name})")
    print(f"  with every layer defended        : "
          f"{len(full.residual_attacks)} attacks remain")
    print("  => the incident crossed data, SoS, and network layers; only the")
    print("     multi-layer posture the paper argues for covers all of it.")


def act5_the_timeline() -> None:
    print("\n--- act 5 [observability]: the incident on one clock ---")
    # Replay the attacker's acts with the repro.obs instrumentation on,
    # capturing each act's event stream separately, then merge them onto
    # one reference clock: the kill chain ran first, the in-vehicle
    # pivot started 2 s into the incident.
    with instrumented() as obs:
        run_breach(n_vehicles=25, days=14)
        breach_events = list(obs.events)
    with instrumented() as obs:
        engine = ResponseEngine(critical_components={"brake-ecu"})
        engine.handle(SecurityAlert(0.5, Layer.NETWORK, "compromised-tcu",
                                    "can-masquerade", Severity.CRITICAL))
        pivot_events = list(obs.events)

    timeline = Timeline()
    timeline.add(breach_events)                 # data layer, t=0 base
    timeline.add(pivot_events, offset_s=2.0)    # pivot started 2 s in
    print(timeline.render(limit=12))
    layers = ", ".join(sorted(layer.name.lower() for layer in timeline.layers()))
    print(f"  => one incident, {len(timeline.merged())} events across "
          f"layers [{layers}] — the cross-layer narrative §VIII demands")


def act6_the_foresight() -> None:
    print("\n--- act 6 [static analysis]: could it have been predicted? ---")
    # Every act above *ran* the incident.  The flow analyzer executes
    # nothing: it compiles the deployed configuration into one
    # cross-layer flow graph, taints the untrusted entry points, and
    # proves whether taint can reach a safety-critical sink — the same
    # paths the red team just walked, found before deployment.
    result = analyze(build_scenario("cariad-breach"))
    print(f"  cariad-breach: {len(result.witnesses)} unprotected "
          f"source->sink path(s) proved statically")
    witness = result.witnesses[0]
    for i, line in enumerate(witness.describe(), 1):
        print(f"    [{i}] {line}")
    cut = sorted(result.cuts.get(witness.sink, set()))
    edges = ", ".join(f"{src}->{dst}" for src, dst in cut)
    print(f"  minimal hardening cut: secure {len(cut)} edge(s): {edges}")

    hardened = analyze(build_scenario("onboard-hardened"))
    print(f"  onboard-hardened: {'PATH-CLEAN' if hardened.path_clean else 'paths remain'}"
          f" — the S1-S3 + SSI posture closes every such path before it exists")


def act7_the_drill() -> None:
    print("\n--- act 7 [chaos]: the drill — would we survive it again? ---")
    # The postmortem's last question is prospective: inject the same
    # weather (babbling ECU, backend outage, registry downtime, ...) as
    # a seeded fault campaign and watch the degradation ladder.  Same
    # base seed => byte-identical report — the drill is reproducible.
    from repro.faults import get_plan, run_chaos_scenario

    plan = get_plan("baseline")
    for name in ("onboard-insecure", "onboard-hardened"):
        result = run_chaos_scenario(name, plan, base_seed=0)
        degradation = result["degradation"]
        recover = degradation["timeToRecoverS"]
        print(f"  {name:17s} min level {degradation['minLevel']:12s} "
              f"final {degradation['finalLevel']:8s} "
              f"{'recovered at t=' + format(recover, 'g') + ' s' if recover is not None else 'never recovered'}")
        retry = result["retry"]
        if result["resilient"]:
            print(f"  {'':17s} absorbed by resilience: {retry['recovered']} "
                  f"retried calls recovered, breaker opened "
                  f"{result['breakers'][0]['opens']}x, "
                  f"{result['ssi']['staleHits']} stale-cache DID resolutions")
    print("  => identical faults; only the posture differs — fail-operational")
    print("     is machinery, not luck (§VIII).")


def act8_the_playbook() -> None:
    print("\n--- act 8 [red team]: the attacker's playbook, precomputed ---")
    # The flow epilogue proved the paths existed; the campaign planner
    # goes one step further and plays the attacker: from the typed
    # attack library it searches capability states for the cheapest
    # multi-stage campaign against every safety-critical sink, naming
    # the defense that would have broken each hop.
    from repro.lint import Analysis, build_scenario
    from repro.redteam import differential_violations, render_campaigns

    breach = Analysis(build_scenario("cariad-breach"))
    result = breach.plan
    print(f"  cariad-breach: {len(result.campaigns)} ranked campaign(s) "
          f"over {len(result.library)} library attacks")
    for line in render_campaigns(result, top=1).splitlines():
        print(f"  {line}")

    hardened_analysis = Analysis(build_scenario("onboard-hardened"))
    hardened = hardened_analysis.plan
    print(f"  onboard-hardened: {len(hardened.library)} attacks in the "
          f"library, {len(hardened.campaigns)} viable campaign(s) — "
          f"{'DEFEATED' if hardened.defeated else 'exposed'}")

    # The differential gate: the planner's campaigns, the flow
    # analyzer's witnesses, and the lint findings must tell one story.
    disagreements = [v for analysis in (breach, hardened_analysis)
                     for v in differential_violations(analysis)]
    print(f"  differential gate: {len(disagreements)} analyzer "
          f"disagreement(s) — lint, flow, and redteam agree")


def act9_the_watchtower() -> None:
    print("\n--- act 9 [sentinel]: the watchtower — seeing it live ---")
    # Acts 6-8 analyzed the incident offline.  The sentinel closes the
    # loop *online*: it subscribes to the live event stream, scores
    # per-source trust tick by tick, and must raise its first ALARM
    # before the vehicle's own SAFE_STOP — detection with lead time,
    # not a forensic shrug after the crash.
    from repro.faults import get_plan
    from repro.sentinel import run_sentinel_scenario

    for name, plan in (("onboard-insecure", "severe"),
                       ("onboard-hardened", "baseline")):
        result = run_sentinel_scenario(name, get_plan(plan), base_seed=0)
        detection = result["detection"]
        first = detection["firstAlarmT"]
        if detection["alarmRaised"]:
            print(f"  {name:17s} first ALARM t={first:g}, safe stop "
                  f"t={detection['safeStopT']:g} — detected "
                  f"{detection['leadTicks']:g} tick(s) ahead; trust "
                  f"collapsed: {', '.join(detection['trustCollapsed'])}")
        else:
            print(f"  {name:17s} zero ALARM incidents under everyday "
                  f"faults; isolated {', '.join(result['response']['isolated'])} "
                  f"on trust collapse and recovered to "
                  f"{result['degradation']['finalLevel'].upper()}")
    print("  => the same engine is silent on the hardened stack and loud")
    print("     before the insecure one stops — the twin CI gates (§VIII).")


def main() -> None:
    print("full-stack attack story (red team vs blue team, paper §VIII)")
    act1_the_breach()
    act2_the_stakes()
    act3_the_pivot()
    act4_the_postmortem()
    act5_the_timeline()
    act6_the_foresight()
    act7_the_drill()
    act8_the_playbook()
    act9_the_watchtower()


if __name__ == "__main__":
    main()
