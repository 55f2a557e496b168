"""The five paper scenarios, each declared once as a :class:`Scenario`.

Every tool checks the same setups: lint, flow and redteam analyze the
target a record's ``build`` assembles, ``repro trace`` runs its
``trace`` driver, chaos and sentinel campaigns run its posture, and the
sentinel maps its telemetry onto flow-graph nodes through ``senders``
and ``anchors``.  :data:`SCENARIOS` is the one table and
:func:`get_scenario` the one lookup.

Three scenarios are *intentionally insecure* — they reproduce the
paper's incident configurations and must keep flagging — and one is the
hardened §III onboard deployment that must lint **clean** (the
regression gate for every future PR).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.entities import Component, Interface, SystemModel
from repro.core.layers import Layer
from repro.core.threats import AccessLevel
from repro.lint.target import AnalysisTarget, GatewayBinding, V2xChannelBinding
from repro.obs import scenarios as traces

__all__ = ["SCENARIOS", "Scenario", "build_scenario", "get_scenario",
           "scenario_names"]


@dataclass(frozen=True)
class Scenario:
    """One paper setup: its target, trace driver, posture and telemetry map.

    The posture fields shape a chaos or sentinel campaign: the
    subsystems it exercises (``phy``, ``ivn``, ``cloud``, ``ssi``),
    whether it retries, breaks circuits and falls back to cached DIDs
    (``resilient``), whether an IDS isolates a babbling ECU
    (``has_ids``), and the degradation ladder's hysteresis.
    """

    name: str
    description: str
    build: Callable[[], AnalysisTarget]
    trace: Callable[[], dict]
    subsystems: tuple[str, ...]
    #: telemetry source -> nearest flow-graph node (the cascade
    #: correlator's bridge between runtime names and graph names)
    anchors: dict[str, str]
    #: legit CAN senders, flow-graph node names; empty without ``ivn``
    senders: tuple[str, ...] = ()
    resilient: bool = False
    has_ids: bool = False
    degrade_threshold: float = 0.5
    degrade_streak: int = 1
    recovery_streak: int = 3
    allow_recovery: bool = False


def pkes_legacy() -> AnalysisTarget:
    """§II-A as shipped pre-[1]: LF/RSSI proximity and a naive receiver."""
    from repro.phy.hrp import HrpReceiver
    from repro.phy.pkes import PkesSystem

    model = SystemModel("pkes-legacy")
    model.add_component(Component("keyfob", Layer.PHYSICAL, criticality=2,
                                  exposed=True, description="relay-reachable fob"))
    model.add_component(Component("pkes-receiver", Layer.PHYSICAL, criticality=2))
    model.add_component(Component("body-control", Layer.NETWORK, criticality=3))
    model.add_component(Component("immobilizer", Layer.NETWORK, criticality=5))
    model.connect(Interface("keyfob", "pkes-receiver", "lf-wakeup",
                            AccessLevel.REMOTE))
    model.connect(Interface("pkes-receiver", "body-control", "lin"))
    model.connect(Interface("body-control", "immobilizer", "can"))

    target = AnalysisTarget(name="pkes-legacy", model=model)
    target.pkes_systems.append(PkesSystem(policy="lf-rssi"))
    target.hrp_receivers.append(
        HrpReceiver(integrity_check=False, threshold_ratio=0.3))
    return target


def cariad_breach() -> AnalysisTarget:
    """§V/Fig. 8: the telemetry backend exactly as breached."""
    from repro.datalayer.breach import build_cariad_service

    service, _ = build_cariad_service(n_vehicles=4, days=2)

    model = SystemModel("cariad-breach")
    model.add_component(Component("vehicle-fleet", Layer.NETWORK, criticality=3))
    model.add_component(Component("telemetry-backend", Layer.DATA, criticality=3,
                                  exposed=True, description="internet-facing API"))
    model.add_component(Component("telemetry-store", Layer.DATA, criticality=4))
    model.connect(Interface("vehicle-fleet", "telemetry-backend", "https",
                            AccessLevel.REMOTE))
    model.connect(Interface("telemetry-backend", "telemetry-store", "s3",
                            AccessLevel.REMOTE))

    target = AnalysisTarget(name="cariad-breach", model=model)
    target.add_cloud_service(service)
    return target


def onboard_insecure() -> AnalysisTarget:
    """§III before any protection: the insecure-by-default onboard network."""
    from repro.ivn.cansec import CansecZone
    from repro.ivn.gateway import GatewayFilter
    from repro.ivn.keymgmt import KeyLifecycleManager
    from repro.ivn.macsec import MacsecPort, MkaSession
    from repro.ivn.secoc import PROFILE_1, SecOcProfile
    from repro.ivn.topology import Endpoint, Zone, ZonalArchitecture

    arch = ZonalArchitecture()
    arch.add_zone(Zone("zc-front", [
        Endpoint("brake-ecu", "can", criticality=5),
        Endpoint("infotainment-amp", "can", criticality=1),
        Endpoint("adas-cam", "t1s", criticality=4),
    ]))
    arch.add_zone(Zone("zc-rear", [
        Endpoint("powertrain-ecu", "can", criticality=5),
        Endpoint("door-ecu", "can", criticality=2),
    ]))
    model = arch.system_model(secured_links=False)

    target = AnalysisTarget(name="onboard-insecure", model=model, zonal=arch)

    # SECOC as actually deployed on classic CAN: truncated everything,
    # plus a legacy PDU group that never got a freshness counter.
    target.secoc_profiles["body-pdus"] = PROFILE_1
    target.secoc_profiles["legacy-pdus"] = SecOcProfile(
        "legacy", freshness_bits=0, mac_bits=24)

    # One fleet-wide key provisioned into both zones (Fig. 4 anti-pattern).
    target.assign_key("fleet-shared-key", "zc-front", "zc-rear")

    # The gateway "filters" by whitelisting the whole standard id space
    # from the connectivity unit straight into the brake zone.
    gateway = GatewayFilter("cc-gw")
    gateway.allow("telematics-port", "front-port", 0x000, 0x7FF)
    gateway.allow("front-port", "rear-port", 0x300, 0x30F)
    binding = GatewayBinding(gateway)
    binding.attach("telematics-port", "telematics")
    binding.attach("front-port", "brake-ecu", "infotainment-amp", "adas-cam")
    binding.attach("rear-port", "powertrain-ecu", "door-ecu")
    target.add_gateway(binding)

    # MACsec uplinks rekey only at 98% of the PN space; CANsec on the
    # rear zone runs integrity-only.
    session = MkaSession(b"\x28" * 16, [MacsecPort("cc"), MacsecPort("zc-front")])
    target.lifecycle_managers.append(
        KeyLifecycleManager(session, rekey_fraction=0.98))
    target.cansec_zones["rear-zone"] = CansecZone(b"\x31" * 16, encrypt=False)

    # The ADAS camera listens to unsigned V2V messages — a §VII
    # adjacent-attacker entry point straight onto a criticality-4 ECU.
    target.add_v2x_channel(V2xChannelBinding("v2v-sidelink", "adas-cam"))
    return target


def onboard_hardened() -> AnalysisTarget:
    """§III fully deployed: the configuration every rule must accept."""
    from repro.ivn.cansec import CansecZone
    from repro.ivn.gateway import GatewayFilter
    from repro.ivn.keymgmt import KeyLifecycleManager
    from repro.ivn.macsec import MacsecPort, MkaSession
    from repro.ivn.secoc import PROFILE_3
    from repro.ivn.topology import ZonalArchitecture
    from repro.ssi.did import Did, DidDocument, KeyPair
    from repro.ssi.registry import VerifiableDataRegistry
    from repro.ssi.vc import VerifiableCredential

    arch = ZonalArchitecture.figure3()
    model = arch.system_model(secured_links=True)

    target = AnalysisTarget(name="onboard-hardened", model=model, zonal=arch,
                            now=1000.0)
    target.secoc_profiles["powertrain-pdus"] = PROFILE_3
    target.assign_key("zone-left-key", "zc-left")
    target.assign_key("zone-right-key", "zc-right")

    gateway = GatewayFilter("cc-gw")
    gateway.allow("left-port", "right-port", 0x300, 0x30F)
    gateway.allow("right-port", "left-port", 0x310, 0x31F)
    binding = GatewayBinding(gateway)
    binding.attach("left-port", "ecu-can-1", "ecu-can-2", "ecu-t1s-1")
    binding.attach("right-port", "ecu-can-3", "ecu-t1s-2", "ecu-t1s-3")
    target.add_gateway(binding)

    session = MkaSession(b"\x28" * 16, [MacsecPort("cc"), MacsecPort("zc-left")])
    target.lifecycle_managers.append(
        KeyLifecycleManager(session, rekey_fraction=0.8))
    target.cansec_zones["left-zone"] = CansecZone(b"\x11" * 16, encrypt=True)

    # Key provisioning is authorized through SSI: the OEM backend issues
    # the vehicle an onboarding credential, both DIDs resolvable.
    registry = VerifiableDataRegistry()
    issuer_did, issuer_key = Did("oem-backend"), KeyPair.from_seed_label("oem-backend")
    vehicle_did, vehicle_key = Did("vehicle-42"), KeyPair.from_seed_label("vehicle-42")
    registry.register(DidDocument.for_keypair(issuer_did, issuer_key))
    registry.register(DidDocument.for_keypair(vehicle_did, vehicle_key))
    credential = VerifiableCredential.issue(
        credential_type="OnboardingCredential",
        issuer=issuer_did, issuer_key=issuer_key, subject=vehicle_did,
        claims={"zones": ["zc-left", "zc-right"]},
        issued_at=0.0, validity_s=365 * 86400.0)
    target.registry = registry
    target.add_credential(credential)

    # The hardened deployment signs its V2X traffic (§VII), so the
    # sidelink is not an untrusted entry point.
    target.add_v2x_channel(
        V2xChannelBinding("v2v-sidelink", "ecu-t1s-1", authenticated=True))
    return target


def maas_platform() -> AnalysisTarget:
    """§VI/Fig. 9: the MaaS system of systems with unsecured integrations."""
    from repro.sos.maas import build_maas_sos

    sos = build_maas_sos(secured_interfaces=False)
    target = AnalysisTarget(name="maas-platform", model=sos.to_system_model())
    target.sos = sos
    return target


SCENARIOS: dict[str, Scenario] = {scenario.name: scenario for scenario in (
    Scenario(
        "pkes-legacy",
        "legacy passive-entry vehicle: UWB ranging and a flat CAN with "
        "no retransmission, IDS, or degradation machinery",
        pkes_legacy, traces.trace_pkes_legacy, ("phy", "ivn"),
        anchors={
            "uwb-anchor": "pkes-receiver",
            "ecu-babbler": "body-control",
            "zonal-can": "body-control",
            "pkes-receiver": "pkes-receiver",
            "body-control": "body-control",
            "immobilizer": "immobilizer",
        },
        senders=("pkes-receiver", "body-control", "immobilizer")),
    Scenario(
        "cariad-breach",
        "cloud telemetry backend alone (the CARIAD-style deployment): "
        "no client-side resilience, availability tracks the outage",
        cariad_breach, traces.trace_cariad_breach, ("cloud",),
        anchors={"telemetry-backend": "telemetry-backend"}),
    Scenario(
        "onboard-insecure",
        "flat onboard E/E architecture with a cloud uplink, every layer "
        "single-shot: one dropped frame or timed-out fetch is a failure",
        onboard_insecure, traces.trace_onboard_insecure, ("phy", "ivn", "cloud"),
        anchors={
            "uwb-anchor": "adas-cam",
            "ecu-babbler": "infotainment-amp",
            "zonal-can": "zc-front",
            "telemetry-backend": "telematics",
            "zc-front": "zc-front",
            "zc-rear": "zc-rear",
            "brake-ecu": "brake-ecu",
        },
        senders=("zc-front", "zc-rear", "brake-ecu")),
    Scenario(
        "onboard-hardened",
        "hardened onboard architecture: retransmission and ranging "
        "retries, circuit breaker on the telemetry backend, cached DID "
        "resolution, IDS isolation of babbling ECUs, hysteretic recovery",
        onboard_hardened, traces.trace_onboard_hardened,
        ("phy", "ivn", "cloud", "ssi"),
        anchors={
            "uwb-anchor": "zc-left",
            "ecu-babbler": "ecu-can-2",
            "zonal-can": "zc-left",
            "telemetry-backend": "telematics",
            "did-registry": "telematics",
            "zc-left": "zc-left",
            "zc-right": "zc-right",
            "ecu-can-1": "ecu-can-1",
        },
        senders=("zc-left", "zc-right", "ecu-can-1"),
        resilient=True, has_ids=True, degrade_threshold=0.75,
        degrade_streak=3, allow_recovery=True),
    Scenario(
        "maas-platform",
        "mobility-as-a-service platform: breaker-guarded backend plus "
        "SSI directory with last-known-good DID caching",
        maas_platform, traces.trace_maas_platform, ("cloud", "ssi"),
        anchors={
            "telemetry-backend": "cloud-backend",
            "did-registry": "platform-gateway",
        },
        resilient=True, degrade_streak=2, recovery_streak=2,
        allow_recovery=True),
)}


def scenario_names() -> list[str]:
    return list(SCENARIOS)


def get_scenario(name: str) -> Scenario:
    """The one lookup: an unknown name raises ``KeyError`` listing them all."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(SCENARIOS)}"
        ) from None


def build_scenario(name: str) -> AnalysisTarget:
    return get_scenario(name).build()
