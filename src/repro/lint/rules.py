"""The rule catalog: ~25 static checks spanning the paper's layers.

Rule-id prefixes map to Fig. 1:

========  ==========================  ============
prefix    layer                       paper
========  ==========================  ============
``PHY``   physical                    §II
``IVN``   network (in-vehicle)        §III, Table I
``SSI``   software & platform         §IV
``DAT``   data                        §V, Fig. 8
``SOS``   system of systems           §VI, Fig. 9
``SEC``   cross-layer architecture    §VIII
========  ==========================  ============

Each check is a pure function from :class:`AnalysisTarget` to
``(subject, message)`` pairs; subjects are stable identifiers (component
names, interface ``a->b`` labels, endpoint paths, key labels, credential
ids) so baseline fingerprints survive message-wording changes.
"""

from __future__ import annotations

import copy
from functools import partial
from typing import Iterator

from repro.core.attackgraph import AttackGraph
from repro.core.layers import Layer
from repro.lint.engine import Rule, Severity, rule
from repro.lint.target import AnalysisTarget

__all__ = ["CATALOG", "full_catalog", "rules_by_id"]

CATALOG: list[Rule] = []
_rule = partial(rule, CATALOG)

#: SEC004 flags any safety-relevant component whose estimated compromise
#: probability (noisy-OR over the top attack paths) exceeds this bound.
COMPROMISE_PROBABILITY_THRESHOLD = 0.5

#: Table I: MACs truncated below this width are brute-forceable on a
#: busy bus (2^-24 per attempt at profile 1 rates is reachable).
MIN_MAC_BITS = 64

#: Freshness counters narrower than this wrap quickly enough to enable
#: the Fig. 5 replay-after-wrap attack on long-lived sessions.
MIN_FRESHNESS_BITS = 16

#: A single gateway allow-rule spanning more ids than this is a
#: whitelist in name only (§V-C: only strictly needed ids should pass).
MAX_GATEWAY_RULE_SPAN = 256

#: 802.1AE: rotating this close to PN exhaustion leaves no margin for a
#: slow MKA round before the GCM nonce space wraps.
MAX_REKEY_FRACTION = 0.95


def rules_by_id() -> dict[str, Rule]:
    return {r.rule_id: r for r in full_catalog()}


# --------------------------------------------------------------------------
# SEC: cross-layer architecture rules over the SystemModel (§VIII, Fig. 1)
# --------------------------------------------------------------------------

@_rule("SEC001", "exposed component with unauthenticated interface",
       layer=Layer.NETWORK, severity=Severity.HIGH, paper_ref="Fig. 1 / Table I",
       remediation="authenticate every interface touching an externally "
                   "reachable component (SECOC/MACsec/TLS as appropriate)")
def check_exposed_unauthenticated(target: AnalysisTarget) -> Iterator[tuple[str, str]]:
    if target.model is None:
        return
    for interface in target.model.interfaces():
        if interface.authenticated:
            continue
        for end in (interface.source, interface.target):
            if target.model.component(end).exposed:
                yield (f"{interface.source}->{interface.target}",
                       f"unauthenticated {interface.protocol!r} interface touches "
                       f"exposed component {end!r}")
                break


@_rule("SEC002", "safety-critical component reachable without breaking crypto",
       layer=Layer.NETWORK, severity=Severity.CRITICAL, paper_ref="§III / §VIII",
       remediation="insert an authenticated boundary on every path from an "
                   "entry point to criticality>=4 components")
def check_critical_reachable(target: AnalysisTarget) -> Iterator[tuple[str, str]]:
    if target.model is None:
        return
    entries = target.model.entry_points()
    for component in target.model.components():
        if component.criticality < 4 or component.exposed:
            continue
        via = [e.name for e in entries
               if component.name in target.model.reachable_from(
                   e.name, only_unsecured=True)]
        if via:
            yield (component.name,
                   f"criticality-{component.criticality} component reachable from "
                   f"entry point(s) {sorted(via)} over unauthenticated interfaces only")


@_rule("SEC003", "unencrypted interface across a layer boundary",
       layer=Layer.DATA, severity=Severity.MEDIUM, paper_ref="§V-A",
       remediation="encrypt data crossing trust/layer boundaries "
                   "(telemetry uplinks, backend APIs) in transit")
def check_cross_layer_plaintext(target: AnalysisTarget) -> Iterator[tuple[str, str]]:
    if target.model is None:
        return
    for interface in target.model.interfaces():
        src = target.model.component(interface.source)
        dst = target.model.component(interface.target)
        if src.layer != dst.layer and not interface.encrypted:
            yield (f"{interface.source}->{interface.target}",
                   f"plaintext {interface.protocol!r} interface crosses the "
                   f"{src.layer.name}/{dst.layer.name} boundary")


@_rule("SEC004", "attack-graph compromise probability above threshold",
       layer=Layer.NETWORK, severity=Severity.HIGH, paper_ref="§V-C",
       remediation="harden the interfaces on the most likely attack path "
                   "(see AttackGraph.minimal_hardening_cut)")
def check_attack_graph(target: AnalysisTarget) -> Iterator[tuple[str, str]]:
    if target.model is None or not target.model.entry_points():
        return
    graph = AttackGraph(target.model)
    for component in target.model.components():
        if component.criticality < 4 or component.exposed:
            continue
        probability = graph.compromise_probability(component.name)
        if probability > COMPROMISE_PROBABILITY_THRESHOLD:
            yield (component.name,
                   f"estimated compromise probability {probability:.2f} exceeds "
                   f"{COMPROMISE_PROBABILITY_THRESHOLD} for criticality-"
                   f"{component.criticality} component")


@_rule("SEC005", "safety-critical component directly exposed",
       layer=Layer.NETWORK, severity=Severity.CRITICAL, paper_ref="Fig. 1",
       remediation="front safety-critical components with a gateway or DMZ; "
                   "never expose them to external attackers directly")
def check_critical_exposed(target: AnalysisTarget) -> Iterator[tuple[str, str]]:
    if target.model is None:
        return
    for component in target.model.components():
        if component.criticality == 5 and component.exposed:
            yield (component.name,
                   "criticality-5 component is itself an external entry point")


# --------------------------------------------------------------------------
# IVN: in-vehicle network configuration (§III, Table I, Figs. 3-6)
# --------------------------------------------------------------------------

@_rule("IVN001", "SECOC MAC truncated below 64 bits",
       layer=Layer.NETWORK, severity=Severity.HIGH, paper_ref="Table I",
       remediation="use a wider MAC profile (e.g. profile 3 on CAN FD / "
                   "Ethernet); 24-bit CMACs trade forgery resistance for bus load")
def check_secoc_mac_truncation(target: AnalysisTarget) -> Iterator[tuple[str, str]]:
    for label, profile in sorted(target.secoc_profiles.items()):
        if profile.mac_bits < MIN_MAC_BITS:
            yield (label,
                   f"profile {profile.name!r} transmits a {profile.mac_bits}-bit MAC "
                   f"(blind forgery probability {profile.forgery_probability:.1e} "
                   "per attempt)")


@_rule("IVN002", "SECOC profile without freshness counter",
       layer=Layer.NETWORK, severity=Severity.HIGH, paper_ref="Fig. 5",
       remediation="enable freshness values: without them every authenticated "
                   "PDU is replayable verbatim")
def check_secoc_no_freshness(target: AnalysisTarget) -> Iterator[tuple[str, str]]:
    for label, profile in sorted(target.secoc_profiles.items()):
        if profile.freshness_bits == 0:
            yield (label,
                   f"profile {profile.name!r} has freshness_bits=0: secured PDUs "
                   "can be replayed")


@_rule("IVN003", "SECOC freshness counter narrower than 16 bits",
       layer=Layer.NETWORK, severity=Severity.LOW, paper_ref="Table I",
       remediation="widen the transmitted freshness window or resynchronize "
                   "counters frequently; narrow windows wrap and re-open replay")
def check_secoc_short_freshness(target: AnalysisTarget) -> Iterator[tuple[str, str]]:
    for label, profile in sorted(target.secoc_profiles.items()):
        if 0 < profile.freshness_bits < MIN_FRESHNESS_BITS:
            yield (label,
                   f"profile {profile.name!r} transmits only "
                   f"{profile.freshness_bits} freshness bits")


@_rule("IVN004", "symmetric key shared across IVN domains",
       layer=Layer.NETWORK, severity=Severity.HIGH, paper_ref="Fig. 4",
       remediation="provision one key per zone/domain so one compromised ECU "
                   "cannot forge traffic for every segment")
def check_key_shared(target: AnalysisTarget) -> Iterator[tuple[str, str]]:
    for key_label, domains in sorted(target.key_domains.items()):
        if len(domains) > 1:
            yield (key_label,
                   f"key provisioned into {len(domains)} domains: {sorted(domains)}")


@_rule("IVN005", "gateway forwards from exposed segment into critical segment",
       layer=Layer.NETWORK, severity=Severity.HIGH, paper_ref="§III / Fig. 3",
       remediation="remove forwarding rules that let an exposed segment inject "
                   "ids toward criticality>=4 ECUs; keep zones default-deny")
def check_gateway_segmentation(target: AnalysisTarget) -> Iterator[tuple[str, str]]:
    if target.model is None:
        return
    components = {c.name: c for c in target.model.components()}
    for binding in target.gateways:
        ports = sorted(binding.port_components)
        for src_port in ports:
            src_exposed = any(components[n].exposed
                              for n in binding.components_on(src_port)
                              if n in components)
            if not src_exposed:
                continue
            for dst_port in ports:
                if dst_port == src_port:
                    continue
                critical = sorted(
                    n for n in binding.components_on(dst_port)
                    if n in components and components[n].criticality >= 4)
                if not critical:
                    continue
                count = binding.gateway.exposure_count(src_port, dst_port)
                if count > 0:
                    yield (f"{binding.gateway.name}:{src_port}->{dst_port}",
                           f"{count} CAN id(s) forwardable from exposed port "
                           f"{src_port!r} toward critical ECU(s) {critical}")


@_rule("IVN006", "gateway allow-rule spans an excessive id range",
       layer=Layer.NETWORK, severity=Severity.MEDIUM, paper_ref="§V-C",
       remediation="enumerate the ids each zone actually needs instead of "
                   "whitelisting broad ranges")
def check_gateway_broad_rule(target: AnalysisTarget) -> Iterator[tuple[str, str]]:
    for binding in target.gateways:
        for allow in binding.gateway.rules:
            span = allow.id_max - allow.id_min + 1
            if span > MAX_GATEWAY_RULE_SPAN:
                yield (f"{binding.gateway.name}:{allow.source_port}->"
                       f"{allow.dest_port}:{allow.id_min:#x}-{allow.id_max:#x}",
                       f"allow rule spans {span} ids "
                       f"(> {MAX_GATEWAY_RULE_SPAN})")


@_rule("IVN007", "MACsec rekey threshold leaves no margin before PN exhaustion",
       layer=Layer.NETWORK, severity=Severity.MEDIUM, paper_ref="§III-A",
       remediation="rotate SAKs at <= 95% of the packet-number space so a slow "
                   "MKA round cannot wrap the GCM nonce")
def check_macsec_rekey(target: AnalysisTarget) -> Iterator[tuple[str, str]]:
    for index, manager in enumerate(target.lifecycle_managers):
        if manager.rekey_fraction > MAX_REKEY_FRACTION:
            yield (f"lifecycle[{index}]",
                   f"rekey_fraction={manager.rekey_fraction} "
                   f"(> {MAX_REKEY_FRACTION}) with pn_limit={manager.pn_limit}")


@_rule("IVN008", "CANsec zone configured without confidentiality",
       layer=Layer.NETWORK, severity=Severity.MEDIUM, paper_ref="Table I",
       remediation="enable encryption on CANsec zones carrying sensitive "
                   "payloads; integrity-only mode leaves them readable on the bus")
def check_cansec_plaintext(target: AnalysisTarget) -> Iterator[tuple[str, str]]:
    for label, zone in sorted(target.cansec_zones.items()):
        if not zone.encrypt:
            yield (label, "zone protects integrity only (encrypt=False); "
                          "payloads cross the bus in plaintext")


@_rule("IVN009", "mixed-criticality ECUs share one unsegmented medium",
       layer=Layer.NETWORK, severity=Severity.MEDIUM, paper_ref="Fig. 3",
       remediation="move low-criticality ECUs to their own segment, or place a "
                   "filtering boundary between them and safety-critical ECUs")
def check_mixed_criticality_segment(target: AnalysisTarget) -> Iterator[tuple[str, str]]:
    if target.zonal is None:
        return
    for zone in target.zonal.zones.values():
        by_medium: dict[str, list] = {}
        for endpoint in zone.endpoints:
            by_medium.setdefault(endpoint.attachment, []).append(endpoint)
        for medium, endpoints in sorted(by_medium.items()):
            highest = max(endpoints, key=lambda e: e.criticality)
            lowest = min(endpoints, key=lambda e: e.criticality)
            if highest.criticality >= 5 and lowest.criticality <= 2:
                yield (f"{zone.name}:{medium}",
                       f"criticality-{highest.criticality} {highest.name!r} shares "
                       f"the {medium} segment with criticality-"
                       f"{lowest.criticality} {lowest.name!r}")


# --------------------------------------------------------------------------
# DAT: cloud/data-layer configuration (§V, Fig. 8)
# --------------------------------------------------------------------------

@_rule("DAT001", "debug endpoint enabled in deployment",
       layer=Layer.DATA, severity=Severity.CRITICAL, paper_ref="Fig. 8 / §V-A",
       remediation="disable debug/actuator features in production builds "
                   "(the CARIAD heap-dump lesson)")
def check_debug_endpoints(target: AnalysisTarget) -> Iterator[tuple[str, str]]:
    for service in target.cloud_services:
        for endpoint in service.active_endpoints():
            if endpoint.debug:
                auth = "unauthenticated " if not endpoint.auth_required else ""
                yield (f"{service.name}:{endpoint.path}",
                       f"{auth}debug endpoint active "
                       f"(feature {endpoint.feature!r})")


@_rule("DAT002", "unauthenticated non-debug endpoint active",
       layer=Layer.DATA, severity=Severity.MEDIUM, paper_ref="§V-A",
       remediation="require authentication on every endpoint; if one must stay "
                   "open (health probes), baseline it explicitly")
def check_unauthenticated_endpoints(target: AnalysisTarget) -> Iterator[tuple[str, str]]:
    for service in target.cloud_services:
        for endpoint in service.active_endpoints():
            if not endpoint.auth_required and not endpoint.debug:
                yield (f"{service.name}:{endpoint.path}",
                       "endpoint answers without credentials")


@_rule("DAT003", "long-lived secret resident in process memory",
       layer=Layer.DATA, severity=Severity.HIGH, paper_ref="Fig. 8 / §V-B",
       remediation="hold keys in an HSM/KMS and fetch per-operation; anything "
                   "in the heap ends up in a heap dump")
def check_secrets_in_memory(target: AnalysisTarget) -> Iterator[tuple[str, str]]:
    for service in target.cloud_services:
        for secret in sorted(service.secrets.values(), key=lambda s: s.key_id):
            if secret.in_process_memory:
                yield (f"{service.name}:{secret.key_id}",
                       f"secret with scopes {sorted(secret.scopes)} is "
                       "recoverable from a memory dump")


@_rule("DAT004", "over-scoped cloud credential",
       layer=Layer.DATA, severity=Severity.HIGH, paper_ref="§V-B",
       remediation="apply least privilege: no deployed key should hold 'admin' "
                   "or be able to mint broader access ('iam:mint')")
def check_overscoped_keys(target: AnalysisTarget) -> Iterator[tuple[str, str]]:
    for service in target.cloud_services:
        for secret in sorted(service.secrets.values(), key=lambda s: s.key_id):
            broad = sorted({"admin", "iam:mint"} & set(secret.scopes))
            if broad:
                yield (f"{service.name}:{secret.key_id}",
                       f"credential carries escalation scope(s) {broad}")


@_rule("DAT005", "no enumeration rate-limit deployed",
       layer=Layer.DATA, severity=Severity.MEDIUM, paper_ref="Fig. 8",
       remediation="deploy the 'rate-limit-enumeration' mitigation so "
                   "gobuster-style path probing is throttled")
def check_rate_limit(target: AnalysisTarget) -> Iterator[tuple[str, str]]:
    if not target.cloud_services:
        return
    if "rate-limit-enumeration" not in target.mitigations:
        for service in target.cloud_services:
            yield (service.name, "unauthenticated path probing is unthrottled")


@_rule("DAT006", "telemetry records stored in plaintext",
       layer=Layer.DATA, severity=Severity.HIGH, paper_ref="§V-B",
       remediation="encrypt records at rest per user so bulk reads yield "
                   "ciphertext only")
def check_plaintext_records(target: AnalysisTarget) -> Iterator[tuple[str, str]]:
    for service in target.cloud_services:
        for bucket in sorted(service.buckets.values(), key=lambda b: b.name):
            plaintext = sum(1 for r in bucket.records if not r.get("encrypted"))
            if plaintext:
                yield (f"{service.name}:{bucket.name}",
                       f"{plaintext} record(s) readable in plaintext on "
                       "bucket access")


@_rule("DAT007", "full kill chain viable against deployed configuration",
       layer=Layer.DATA, severity=Severity.CRITICAL, paper_ref="Fig. 8",
       remediation="deploy at least one mitigation per chain stage; every "
                   "single Fig. 8 mitigation breaks the chain somewhere")
def check_kill_chain(target: AnalysisTarget) -> Iterator[tuple[str, str]]:
    from repro.datalayer.killchain import MITIGATIONS, KillChain, cariad_stages

    mitigations = target.mitigations & MITIGATIONS.keys()
    for service in target.cloud_services:
        chain = KillChain(cariad_stages())
        # The chain execution mutates service state (access logs, minted
        # keys); lint must stay side-effect free, so run it on a copy.
        results = chain.run(copy.deepcopy(service), mitigations=mitigations)
        depth = chain.depth_reached(results)
        if depth == len(chain.stages):
            yield (service.name,
                   f"all {depth} kill-chain stages succeed statically against "
                   "this configuration")


# --------------------------------------------------------------------------
# SSI: identity & credential configuration (§IV, Fig. 7)
# --------------------------------------------------------------------------

@_rule("SSI001", "expired verifiable credential in use",
       layer=Layer.SOFTWARE_PLATFORM, severity=Severity.MEDIUM, paper_ref="§IV",
       remediation="re-issue the credential; verifiers must reject expired "
                   "validity windows")
def check_expired_credentials(target: AnalysisTarget) -> Iterator[tuple[str, str]]:
    for credential in target.credentials:
        if credential.expires_at < target.now:
            yield (credential.credential_id,
                   f"{credential.credential_type} expired at "
                   f"{credential.expires_at:.0f} (now {target.now:.0f})")


@_rule("SSI002", "self-issued credential (issuer == subject)",
       layer=Layer.SOFTWARE_PLATFORM, severity=Severity.HIGH, paper_ref="§IV",
       remediation="credentials must be attested by an independent trust "
                   "anchor, not by their own subject")
def check_self_issued(target: AnalysisTarget) -> Iterator[tuple[str, str]]:
    for credential in target.credentials:
        if credential.issuer == credential.subject:
            yield (credential.credential_id,
                   f"{credential.credential_type} is self-attested by "
                   f"{credential.issuer}")


@_rule("SSI003", "credential issuer unresolvable in the registry",
       layer=Layer.SOFTWARE_PLATFORM, severity=Severity.HIGH, paper_ref="§IV",
       remediation="register the issuer's DID document before accepting its "
                   "credentials; unresolvable issuers cannot be verified")
def check_unresolvable_issuer(target: AnalysisTarget) -> Iterator[tuple[str, str]]:
    if target.registry is None:
        return
    for credential in target.credentials:
        try:
            target.registry.resolve(credential.issuer)
        except KeyError:
            yield (credential.credential_id,
                   f"issuer {credential.issuer} has no DID document")


@_rule("SSI004", "revoked credential still provisioned",
       layer=Layer.SOFTWARE_PLATFORM, severity=Severity.MEDIUM, paper_ref="§IV",
       remediation="purge revoked credentials from wallets/configuration; "
                   "offline verifiers will still accept them")
def check_revoked_credentials(target: AnalysisTarget) -> Iterator[tuple[str, str]]:
    if target.registry is None:
        return
    for credential in target.credentials:
        if target.registry.is_revoked(credential.credential_id):
            yield (credential.credential_id,
                   f"{credential.credential_type} was revoked but is still "
                   "deployed")


@_rule("SSI005", "verifiable data registry hash chain broken",
       layer=Layer.SOFTWARE_PLATFORM, severity=Severity.CRITICAL, paper_ref="§IV",
       remediation="the registry's append-only guarantee is violated; rebuild "
                   "from a trusted snapshot and investigate")
def check_registry_chain(target: AnalysisTarget) -> Iterator[tuple[str, str]]:
    if target.registry is None:
        return
    if not target.registry.verify_chain():
        yield ("registry", "ledger hash chain does not verify end to end")


# --------------------------------------------------------------------------
# PHY: physical-layer configuration (§II)
# --------------------------------------------------------------------------

@_rule("PHY001", "PKES relies on relay-vulnerable proximity check",
       layer=Layer.PHYSICAL, severity=Severity.HIGH, paper_ref="§II-A",
       remediation="switch to UWB time-of-flight ranging (uwb-hrp/uwb-lrp); a "
                   "relay can only ADD distance to a ToF measurement")
def check_pkes_policy(target: AnalysisTarget) -> Iterator[tuple[str, str]]:
    for index, system in enumerate(target.pkes_systems):
        if system.policy == "lf-rssi":
            yield (f"pkes[{index}]",
                   f"policy 'lf-rssi' with unlock range "
                   f"{system.unlock_range_m} m is defeated by signal relaying")


@_rule("PHY002", "HRP receiver accepts peaks without integrity check",
       layer=Layer.PHYSICAL, severity=Severity.MEDIUM, paper_ref="§II-A [4]",
       remediation="enable the normalized-correlation first-path validation; "
                   "naive correlation accepts ghost peaks that shorten distance")
def check_hrp_integrity(target: AnalysisTarget) -> Iterator[tuple[str, str]]:
    for index, receiver in enumerate(target.hrp_receivers):
        if not receiver.integrity_check:
            yield (f"hrp-receiver[{index}]",
                   "integrity_check=False: ghost-peak distance reduction is "
                   "accepted")


# --------------------------------------------------------------------------
# SOS: system-of-systems configuration (§VI, Fig. 9)
# --------------------------------------------------------------------------

@_rule("SOS001", "third-party system interface not secured",
       layer=Layer.SYSTEM_OF_SYSTEMS, severity=Severity.HIGH, paper_ref="§VI-B",
       remediation="authenticate third-party integrations; they are the SoS "
                   "supply-chain boundary")
def check_third_party_interfaces(target: AnalysisTarget) -> Iterator[tuple[str, str]]:
    if target.sos is None:
        return
    for interface in target.sos.interfaces:
        if interface.third_party and not interface.secured:
            yield (f"{interface.source}->{interface.target}",
                   f"third-party {interface.kind!r} interface has no "
                   "authentication")


@_rule("SOS002", "real-time system interface not secured",
       layer=Layer.SYSTEM_OF_SYSTEMS, severity=Severity.MEDIUM, paper_ref="§VI-B",
       remediation="real-time links are DoS/spoof-critical; authenticate them "
                   "and monitor their liveness")
def check_realtime_interfaces(target: AnalysisTarget) -> Iterator[tuple[str, str]]:
    if target.sos is None:
        return
    for interface in target.sos.interfaces:
        if interface.realtime and not interface.secured:
            yield (f"{interface.source}->{interface.target}",
                   f"real-time {interface.kind!r} interface has no "
                   "authentication")


@_rule("SOS003", "safety-critical system without an assigned stakeholder",
       layer=Layer.SYSTEM_OF_SYSTEMS, severity=Severity.LOW, paper_ref="§VI-C",
       remediation="assign responsibility for every safety-critical system; "
                   "unowned systems are unpatched systems")
def check_missing_stakeholder(target: AnalysisTarget) -> Iterator[tuple[str, str]]:
    if target.sos is None:
        return
    for system in target.sos.root.walk():
        if system.safety_critical and not system.stakeholder:
            yield (system.name, "no stakeholder/operator recorded")


def full_catalog() -> list[Rule]:
    """Every rule: this module's CATALOG plus the FLOW and RT families.

    The FLOW rules live in :mod:`repro.flow.rules` (they read the run's
    taint analysis) and the RT rules in :mod:`repro.redteam.rules`
    (they read the run's attack plan); each run's
    :class:`~repro.lint.engine.Analysis` computes those two once and
    shares them across the family.  Importing the families lazily here
    — instead of at module import — keeps ``repro.lint``,
    ``repro.flow``, and ``repro.redteam`` free of a circular import in
    any load order.  :class:`~repro.lint.engine.Linter` defaults to
    this combined catalog.
    """
    from repro.flow.rules import FLOW_RULES
    from repro.redteam.rules import RT_RULES

    return CATALOG + FLOW_RULES + RT_RULES
