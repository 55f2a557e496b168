"""Trace drivers for the ``python -m repro trace`` CLI.

Each lint scenario audits a *static* configuration; the drivers here
execute that configuration's dynamic counterpart with instrumentation
enabled, so the CLI can show the relay attack, the secured-onboard
traffic, or the kill chain unfolding event by event.  Each scenario
record in :data:`repro.lint.scenarios.SCENARIOS` points at its driver
through its ``trace`` field; ``obs`` imports no analyzer at module
scope, so :func:`run_trace_scenario` looks the record up only when
called.  Drivers assume :data:`repro.obs.runtime.OBS` is already enabled
(the CLI wraps them in :func:`~repro.obs.runtime.instrumented`) and
return a flat dict of scalar results that lands in the JSON document's
``result`` block.
"""

from __future__ import annotations

import numpy as np

from repro.core.layers import Layer
from repro.obs.events import EventKind
from repro.obs.runtime import OBS

__all__ = ["run_trace_scenario"]


def _alert(component: str, attack: str, layer: Layer, severity_name: str,
           t: float):
    """Build a SecurityAlert without importing response at module load."""
    from repro.core.response import SecurityAlert, Severity

    return SecurityAlert(t, layer, component, attack,
                         Severity[severity_name])


def trace_pkes_legacy() -> dict:
    """§II-A dynamic counterpart: relay the fob against both receivers."""
    from repro.phy.attacks import RelayAttack
    from repro.phy.hrp import generate_sts
    from repro.phy.pkes import PkesSystem
    from repro.phy.toa import cross_correlation, first_path_toa

    relay = RelayAttack(cable_length_m=30.0)
    far_fob_m = 40.0
    results: dict = {}

    with OBS.span("phy.relay-attack", fob_distance_m=far_fob_m):
        for policy in ("lf-rssi", "uwb-hrp"):
            with OBS.span(f"phy.unlock.{policy}"):
                system = PkesSystem(policy=policy)
                attempt = system.try_unlock(far_fob_m, relay=relay)
                OBS.emit(EventKind.UNLOCK_ATTEMPT, Layer.PHYSICAL, policy,
                         f"relayed unlock {'SUCCEEDED' if attempt.unlocked else 'failed'} "
                         f"(perceived {attempt.perceived_distance_m:.2f} m)",
                         unlocked=attempt.unlocked,
                         perceived_m=attempt.perceived_distance_m)
                results[f"relay_unlocks_{policy.replace('-', '_')}"] = attempt.unlocked
        OBS.emit(EventKind.ATTACK_STEP, Layer.PHYSICAL, "relay",
                 f"relay adds {relay.cable_length_m:.0f} m of cable: RSSI fooled, "
                 "ToF not", cable_m=relay.cable_length_m)

    with OBS.span("phy.toa-pipeline"):
        # The naive receiver's ToA search over a clean STS arrival.
        template = generate_sts(b"\x5a" * 16, counter=1, length=128)
        received = np.concatenate([np.zeros(40), template, np.zeros(24)])
        estimate = first_path_toa(cross_correlation(received, template))
        results["toa_sample"] = estimate.toa_sample

    return results


def _secoc_bus_exchange(profile_name: str) -> dict:
    """Secured PDUs over the CAN bus: the S1 traffic pattern, timed."""
    from repro.core.events import Simulator
    from repro.ivn.bus import BusNode, CanBus
    from repro.ivn.frames import CanFrame
    from repro.ivn.secoc import PROFILE_1, PROFILE_3, SecOcChannel, SecuredPdu

    profile = PROFILE_3 if profile_name == "profile3" else PROFILE_1
    key = b"\x42" * 16
    sender = SecOcChannel(key, profile)
    receiver = SecOcChannel(key, profile)
    verified = rejected = 0

    sim = Simulator()
    bus = CanBus(sim, name="zonal-can")
    # Arbitration reorders frames across ids (lower id wins), so pair
    # PDUs with deliveries per id — within one id the bus is FIFO.
    pending: dict[int, list[SecuredPdu]] = {}

    def on_receive(record) -> None:
        nonlocal verified, rejected
        pdu = pending[record.frame.can_id].pop(0)
        if receiver.verify(pdu):
            verified += 1
        else:
            rejected += 1

    bus.attach(BusNode("zc-left"))
    bus.attach(BusNode("zc-right", on_receive=on_receive))

    with OBS.span("ivn.secoc-traffic", profile=profile.name):
        for i in range(8):
            can_id = 0x300 + i % 2
            pdu = sender.secure(can_id, bytes([i]) * 4)
            if i == 5:
                # A masquerading node forges the MAC (blind forgery).
                pdu = SecuredPdu(pdu.pdu_id, pdu.payload,
                                 pdu.truncated_freshness, b"\x00" * len(pdu.truncated_mac))
            pending.setdefault(can_id, []).append(pdu)
            bus.send("zc-left", CanFrame(can_id, pdu.payload))
        sim.run()

    return {"frames_delivered": len(bus.delivered), "macs_verified": verified,
            "macs_rejected": rejected, "bus_busy_fraction": bus.utilization_window}


def trace_onboard_insecure() -> dict:
    """§III before protection: flood, forgery, and the bus-off eviction."""
    from repro.ivn.busoff import BusOffAttack, simulate_busoff

    results = _secoc_bus_exchange("profile1")

    with OBS.span("ivn.busoff-campaign"):
        outcome = simulate_busoff(BusOffAttack(hit_probability=0.95),
                                  rounds=80, defend=False)
        results["victim_bus_off"] = outcome.victim_bus_off

    with OBS.span("core.response"):
        from repro.core.response import ResponseEngine

        engine = ResponseEngine(critical_components={"victim-ecu"})
        decision = engine.handle(_alert("victim-ecu", "bus-off-eviction",
                                        Layer.NETWORK, "CRITICAL", t=80.0))
        results["response"] = decision.action.name.lower()
    return results


def trace_onboard_hardened() -> dict:
    """§III fully deployed: secured traffic + secure ranging + response."""
    from repro.core.response import ResponseEngine
    from repro.ivn.busoff import BusOffAttack, simulate_busoff
    from repro.phy.attacks import RelayAttack
    from repro.phy.pkes import PkesSystem

    results = _secoc_bus_exchange("profile3")

    with OBS.span("phy.secure-ranging"):
        system = PkesSystem(policy="uwb-hrp")
        honest = system.try_unlock(1.0)
        relayed = system.try_unlock(40.0, relay=RelayAttack())
        OBS.emit(EventKind.UNLOCK_ATTEMPT, Layer.PHYSICAL, "uwb-hrp",
                 f"honest unlock {'ok' if honest.unlocked else 'FAILED'}; "
                 f"relay {'BLOCKED' if not relayed.unlocked else 'succeeded'}",
                 honest_unlocked=honest.unlocked,
                 relay_blocked=not relayed.unlocked)
        results["honest_unlocked"] = honest.unlocked
        results["relay_blocked"] = not relayed.unlocked

    with OBS.span("ivn.busoff-defended"):
        outcome = simulate_busoff(BusOffAttack(hit_probability=0.95),
                                  rounds=80, defend=True)
        results["attacker_isolated"] = outcome.attacker_isolated
        results["victim_survived"] = not outcome.victim_bus_off

    with OBS.span("core.response"):
        engine = ResponseEngine()
        decision = engine.handle(_alert("zc-right", "secoc-mac-forgery",
                                        Layer.NETWORK, "WARNING", t=1.0))
        results["response"] = decision.action.name.lower()
    return results


def trace_cariad_breach() -> dict:
    """§V/Fig. 8 dynamic counterpart: the kill chain, open then mitigated."""
    from repro.core.response import ResponseEngine
    from repro.datalayer.breach import run_breach

    with OBS.span("datalayer.breach.unmitigated"):
        open_run = run_breach(n_vehicles=6, days=2)
    with OBS.span("datalayer.breach.mitigated"):
        defended = run_breach(n_vehicles=6, days=2,
                              mitigations={"disable-debug-endpoints"})

    with OBS.span("core.response"):
        engine = ResponseEngine(critical_components={"telemetry-backend"})
        decision = engine.handle(_alert("telemetry-backend", "data-exfiltration",
                                        Layer.DATA, "CRITICAL",
                                        t=float(open_run.stages_completed)))

    return {
        "stages_completed_open": open_run.stages_completed,
        "stages_completed_mitigated": defended.stages_completed,
        "records_exfiltrated": open_run.records_exfiltrated,
        "response": decision.action.name.lower(),
    }


def trace_maas_platform() -> dict:
    """§VI/§VII dynamic counterpart: the cooperating fleet under injection."""
    from repro.collab.attacks import ExternalInjector, PositionOffsetAttacker
    from repro.collab.detection import SecureCollabFusion
    from repro.collab.perception import CollabVehicle, PerceptionWorld, WorldObject
    from repro.core.response import ResponseEngine

    objects = [WorldObject(1, 10.0, 0.0), WorldObject(2, -15.0, 5.0),
               WorldObject(3, 0.0, 20.0)]
    vehicles = [CollabVehicle("veh-a", 0.0, 0.0),
                CollabVehicle("veh-b", 5.0, 5.0),
                CollabVehicle("veh-c", -5.0, 10.0)]
    world = PerceptionWorld(objects, vehicles)
    fusion = SecureCollabFusion(world)
    injector = ExternalInjector(n_ghosts=2)
    insider = PositionOffsetAttacker(vehicles[1], offset_x=6.0)

    def malicious(objs):
        return insider.malicious_shares(objs) + injector.forge_shares()

    with OBS.span("collab.fusion-rounds", rounds=6):
        reports = fusion.run_rounds(6, malicious_shares_fn=malicious)

    insider_trust = fusion.trust.score("veh-b")
    results = {
        "rounds": len(reports),
        "dropped_unauthenticated": sum(r.dropped_unauthenticated for r in reports),
        "flagged_shares": sum(r.flagged_shares for r in reports),
        "insider_trust": round(insider_trust, 3),
    }

    with OBS.span("core.response"):
        engine = ResponseEngine()
        severity = "CRITICAL" if insider_trust < 0.5 else "WARNING"
        decision = engine.handle(_alert("veh-b", "position-offset-insider",
                                        Layer.SYSTEM_OF_SYSTEMS, severity,
                                        t=float(len(reports))))
        results["response"] = decision.action.name.lower()
    return results


def run_trace_scenario(name: str) -> dict:
    """Run one scenario's driver (instrumentation must already be enabled)."""
    from repro.lint.scenarios import get_scenario

    driver = get_scenario(name).trace
    with OBS.span(name):
        return driver()
