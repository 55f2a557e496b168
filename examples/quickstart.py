#!/usr/bin/env python3
"""Quickstart: a tour through every layer of the reproduction.

Runs one small experiment per layer of the paper's architecture (Fig. 1)
and prints the headline result, so you can see the whole library working
in under a minute:

    python examples/quickstart.py
"""

from repro.core.analysis import LayeredSecurityAnalyzer
from repro.core.threats import default_catalog
from repro.datalayer import run_breach
from repro.ivn import run_all_scenarios
from repro.phy import PkesSystem, RelayAttack
from repro.sos import CascadeSimulator, build_maas_sos
from repro.ssi import (
    CHARGING_CONTRACT,
    SsiChargingFlow,
    TrustPolicy,
    VerifiableDataRegistry,
    Wallet,
)

NOW = 1_750_000_000.0


def main() -> None:
    print("=" * 72)
    print("autosec-repro quickstart — one experiment per layer")
    print("=" * 72)

    # Physical layer (§II): the PKES relay attack and its ToF fix.
    legacy = PkesSystem(policy="lf-rssi")
    secure = PkesSystem(policy="uwb-hrp")
    relay = RelayAttack(cable_length_m=30.0)
    print("\n[physical] PKES relay attack, key fob 50 m away:")
    print(f"  legacy LF/RSSI proximity : car stolen = {legacy.relay_attack_succeeds(50.0, relay)}")
    print(f"  UWB secure ranging       : car stolen = {secure.relay_attack_succeeds(50.0, relay)}")

    # Network layer (§III): the four protocol-stack scenarios.
    print("\n[network] securing ECU -> central computing (16-byte PDU):")
    for report in run_all_scenarios(b"\x42" * 16):
        print(f"  {report.name:30s} latency={report.latency_s * 1e6:7.1f} us  "
              f"ZC keys={report.keys_at_zc}  edge confidentiality={report.confidentiality_on_edge}")

    # Software & platform layer (§IV): SSI plug-and-charge.
    registry = VerifiableDataRegistry()
    policy = TrustPolicy(registry)
    flow = SsiChargingFlow(registry, policy)
    provider = Wallet.create("emsp", registry)
    vehicle = Wallet.create("ev", registry)
    policy.add_anchor(CHARGING_CONTRACT, str(provider.did))
    flow.subscribe(vehicle, provider, now=NOW)
    auth = flow.authorize(vehicle, now=NOW + 60)
    print(f"\n[software] SSI plug-and-charge: authorized={auth.authorized} "
          f"({flow.message_count()} protocol messages)")

    # Data layer (§V): the CARIAD kill chain.
    breach = run_breach(n_vehicles=20, days=10)
    print(f"\n[data] CARIAD kill chain: {breach.stages_completed}/{breach.total_stages} "
          f"stages, {breach.records_exfiltrated} records exfiltrated")
    fixed = run_breach(n_vehicles=20, days=10,
                       mitigations={"disable-debug-endpoints"})
    print(f"       with debug endpoints disabled: "
          f"{fixed.stages_completed}/{fixed.total_stages} stages, "
          f"{fixed.records_exfiltrated} records")

    # System-of-systems layer (§VI): breach cascade in the MaaS platform.
    sim = CascadeSimulator(build_maas_sos(), seed_label="quickstart")
    cascade = sim.run("cloud-backend", trials=200)
    print(f"\n[sos] breach cascade from the cloud backend: "
          f"mean blast radius {cascade.mean_blast_radius:.1f} systems, "
          f"P[safety-critical hit] = {cascade.p_safety_critical_hit:.0%}")

    # Cross-layer (§VIII): holistic coverage.
    analyzer = LayeredSecurityAnalyzer(default_catalog())
    none = analyzer.assess(set())
    full = analyzer.assess()
    print(f"\n[holistic] cataloged attacks: {len(none.residual_attacks)}; "
          f"residual with ALL of the paper's defenses: {len(full.residual_attacks)}")
    print("\ndone — see benchmarks/ for the full per-figure reproductions.")


if __name__ == "__main__":
    main()
