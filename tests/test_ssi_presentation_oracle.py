"""``TrustPolicy.verify_presentation`` against the two-step reference path.

The reference below is the verification a verifier ran before the
registry cached signature verdicts: ``presentation.verify`` (holder
binding, then every credential, each resolving its issuer's document
and checking the signature afresh), then ``policy.verify_credential``
on every credential (the same credential checks again, then the anchor
policy over accreditation chains, each hop checked afresh).  It touches
no cache.  Over generated worlds the one-pass path must give the same
``(valid, reason)``, both cold and after its verdicts are cached, and
whatever changed in the world after the cache was warmed.

A second pair of tests counts Ed25519 verifications per transaction.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import ed25519
from repro.ssi import (CHARGING_CONTRACT, HW_CREDENTIAL, SW_CREDENTIAL, KeyPair,
                       ReconfigurationController, SsiChargingFlow, TrustPolicy,
                       VerifiableDataRegistry, VerifiablePresentation, VerificationResult,
                       Wallet)
from repro.ssi.trust import ACCREDITATION_TYPE

NOW = 1_700_000_000.0
CTYPE = "Test"

# -- the reference: two steps, nothing cached ----------------------------------------


def ref_credential(cred, registry, *, now, check_revocation=True):
    if not cred.proof:
        return VerificationResult(False, "unsigned credential")
    if now < cred.issued_at:
        return VerificationResult(False, "not yet valid")
    if now > cred.expires_at:
        return VerificationResult(False, "expired")
    try:
        issuer_doc = registry.resolve(cred.issuer)
    except KeyError:
        return VerificationResult(False, f"issuer {cred.issuer} unresolvable")
    if not issuer_doc.verify(cred.signing_input(), cred.proof):
        return VerificationResult(False, "bad signature")
    if check_revocation and registry.is_revoked(cred.credential_id):
        return VerificationResult(False, "revoked")
    return VerificationResult(True)


def ref_presentation(pres, registry, *, now, expected_challenge, check_revocation=True):
    if pres.challenge != expected_challenge:
        return VerificationResult(False, "challenge mismatch (replay?)")
    try:
        holder_doc = registry.resolve(pres.holder)
    except KeyError:
        return VerificationResult(False, f"holder {pres.holder} unresolvable")
    if not holder_doc.verify(pres.signing_input(), pres.proof):
        return VerificationResult(False, "bad holder signature")
    for cred in pres.credentials:
        if cred.subject != pres.holder:
            return VerificationResult(
                False, f"credential {cred.credential_id} not bound to holder")
        result = ref_credential(cred, registry, now=now, check_revocation=check_revocation)
        if not result:
            return VerificationResult(False, f"credential {cred.credential_id}: {result.reason}")
    return VerificationResult(True)


def ref_issuer_trusted(policy, issuer, ctype, *, now, depth):
    if issuer in policy.anchors_for(ctype):
        return True
    if depth >= policy.max_chain_length:
        return False
    for accreditation in policy._accreditations.get(issuer, []):
        if ctype not in accreditation.claims.get("accreditedFor", []):
            continue
        if not ref_credential(accreditation, policy.registry, now=now):
            continue
        if ref_issuer_trusted(policy, accreditation.issuer, ctype, now=now, depth=depth + 1):
            return True
    return False


def ref_verify_credential(policy, cred, *, now, check_revocation=True):
    result = ref_credential(cred, policy.registry, now=now, check_revocation=check_revocation)
    if not result:
        return result
    if not ref_issuer_trusted(policy, cred.issuer, cred.credential_type, now=now, depth=0):
        return VerificationResult(False, f"issuer {cred.issuer} not reachable from any anchor")
    return VerificationResult(True)


def reference(policy, pres, *, now, expected_challenge, check_revocation):
    result = ref_presentation(pres, policy.registry, now=now,
                              expected_challenge=expected_challenge,
                              check_revocation=check_revocation)
    for cred in pres.credentials:
        if not result:
            break
        result = ref_verify_credential(policy, cred, now=now,
                                       check_revocation=check_revocation)
    return result


# -- generated worlds -----------------------------------------------------------------

#: What changes after the verdicts are cached.
EVENTS = ("none", "revoke", "revoke-accreditation", "rotate-issuer", "rotate-issuer-keep",
          "rotate-accreditor", "rotate-holder")
#: How the presentation is made.
PRESENTATIONS = ("genuine", "wrong-challenge", "foreign-holder", "tampered-claims",
                 "forged-holder-signature", "stale-holder-key")
#: When it is verified: inside, after and before the leaf credential's window.
TIMES = (NOW + 1, NOW + 2000, NOW - 1)


def build_world(chain: int, rogue: bool):
    registry = VerifiableDataRegistry()
    policy = TrustPolicy(registry)
    anchor = Wallet.create("anchor", registry)
    policy.add_anchor(CTYPE, str(anchor.did))
    issuers = [anchor]
    accreditations = []
    for hop in range(chain):
        nxt = Wallet.create(f"hop{hop}", registry)
        accreditations.append(issuers[-1].issue(
            credential_type=ACCREDITATION_TYPE, subject=nxt.did,
            claims={"accreditedFor": [CTYPE]}, issued_at=NOW))
        policy.record_accreditation(accreditations[-1])
        issuers.append(nxt)
    leaf = Wallet.create("rogue", registry) if rogue else issuers[-1]
    holder = Wallet.create("holder", registry)
    holder.store(leaf.issue(credential_type=CTYPE, subject=holder.did,
                            claims={"level": 1}, issued_at=NOW, validity_s=1000))
    return policy, issuers, accreditations, leaf, holder


def apply_event(event, policy, issuers, accreditations, leaf, holder):
    registry = policy.registry
    if event == "revoke":
        registry.revoke_credential(holder.credentials[0].credential_id, leaf.did)
    elif event == "revoke-accreditation" and accreditations:
        registry.revoke_credential(accreditations[-1].credential_id, issuers[-2].did)
    elif event in ("rotate-issuer", "rotate-issuer-keep"):
        leaf.rotate_keys(registry, keep_old_key=event == "rotate-issuer-keep")
    elif event == "rotate-accreditor":
        issuers[0].rotate_keys(registry, keep_old_key=False)
    elif event == "rotate-holder":
        holder.rotate_keys(registry, keep_old_key=False)


def make_presentation(kind, registry, holder, old_key, challenge):
    cred = holder.credentials[0]
    if kind == "wrong-challenge":
        return holder.present([CTYPE], b"someone else's nonce")
    if kind == "foreign-holder":
        stranger = Wallet.create("stranger", registry)
        return VerifiablePresentation.create(holder=stranger.did, holder_key=stranger.keypair,
                                             credentials=[cred], challenge=challenge)
    if kind == "tampered-claims":
        return VerifiablePresentation.create(holder=holder.did, holder_key=holder.keypair,
                                             credentials=[replace(cred, claims={"level": 9})],
                                             challenge=challenge)
    key = {"forged-holder-signature": KeyPair.from_seed_label("mallory"),
           "stale-holder-key": old_key}.get(kind, holder.keypair)
    return VerifiablePresentation.create(holder=holder.did, holder_key=key,
                                         credentials=[cred], challenge=challenge)


@settings(max_examples=150, deadline=None)
@given(chain=st.integers(0, 4), rogue=st.booleans(), event=st.sampled_from(EVENTS),
       kind=st.sampled_from(PRESENTATIONS), now=st.sampled_from(TIMES),
       online=st.booleans())
def test_verify_presentation_matches_the_two_step_reference(chain, rogue, event, kind,
                                                             now, online):
    policy, issuers, accreditations, leaf, holder = build_world(chain, rogue)
    warm = holder.present([CTYPE], b"warm-up")
    got = policy.verify_presentation(warm, now=NOW + 1, expected_challenge=b"warm-up")
    expected = reference(policy, warm, now=NOW + 1, expected_challenge=b"warm-up",
                         check_revocation=True)
    assert (got.valid, got.reason) == (expected.valid, expected.reason)
    old_key = holder.keypair
    apply_event(event, policy, issuers, accreditations, leaf, holder)
    challenge = b"fresh nonce"
    pres = make_presentation(kind, policy.registry, holder, old_key, challenge)

    expected = reference(policy, pres, now=now, expected_challenge=challenge,
                         check_revocation=online)
    for _ in range(2):      # cold for anything the event touched, then cached
        got = policy.verify_presentation(pres, now=now, expected_challenge=challenge,
                                         check_revocation=online)
        assert (got.valid, got.reason) == (expected.valid, expected.reason)
        assert got.untrusted == expected.reason.endswith("not reachable from any anchor")


# -- verifications per transaction ------------------------------------------------------


@pytest.fixture()
def verifies(monkeypatch):
    calls = []
    real = ed25519.verify

    def counting(public: bytes, message: bytes, signature: bytes) -> bool:
        calls.append(message)
        return real(public, message, signature)

    monkeypatch.setattr(ed25519, "verify", counting)
    return calls


def test_an_online_charge_verifies_two_signatures_then_one(verifies):
    registry = VerifiableDataRegistry()
    policy = TrustPolicy(registry)
    flow = SsiChargingFlow(registry, policy)
    emsp, ev = Wallet.create("emsp", registry), Wallet.create("ev", registry)
    policy.add_anchor(CHARGING_CONTRACT, str(emsp.did))
    flow.subscribe(ev, emsp, now=NOW)
    counts = []
    for n in range(3):
        before = len(verifies)
        assert flow.authorize(ev, now=NOW + 60 + n).reason == "ok"
        counts.append(len(verifies) - before)
    assert counts == [2, 1, 1]


def test_a_placement_verifies_four_signatures_then_two(verifies):
    registry = VerifiableDataRegistry()
    policy = TrustPolicy(registry)
    controller = ReconfigurationController(policy)
    hw_vendor, sw_vendor, ecu, app = (Wallet.create(name, registry) for name in
                                      ("hw-vendor", "sw-vendor", "ecu", "app"))
    policy.add_anchor(HW_CREDENTIAL, str(hw_vendor.did))
    policy.add_anchor(SW_CREDENTIAL, str(sw_vendor.did))
    ecu.store(hw_vendor.issue(credential_type=HW_CREDENTIAL, subject=ecu.did,
                              claims={"platformType": "adas"}, issued_at=NOW))
    app.store(sw_vendor.issue(credential_type=SW_CREDENTIAL, subject=app.did,
                              claims={"approvedPlatforms": ["adas"]}, issued_at=NOW))
    counts = []
    for n in range(3):
        before = len(verifies)
        decision = controller.authorize_placement(app, ecu, now=NOW + 60 + n)
        assert (decision.authorized, decision.reason, decision.verification_steps) \
            == (True, "ok", 5)
        counts.append(len(verifies) - before)
    assert counts == [4, 2, 2]


def test_a_placement_reports_a_failed_presentation_before_an_untrusted_issuer():
    # The parent checked both presentations before either anchor policy:
    # a rogue release on a platform whose credential has expired is
    # denied for the expired platform credential, after two steps.
    registry = VerifiableDataRegistry()
    policy = TrustPolicy(registry)
    controller = ReconfigurationController(policy)
    hw_vendor, rogue, ecu, app = (Wallet.create(name, registry) for name in
                                  ("hw-vendor", "rogue", "ecu", "app"))
    policy.add_anchor(HW_CREDENTIAL, str(hw_vendor.did))
    hw_cred = hw_vendor.issue(credential_type=HW_CREDENTIAL, subject=ecu.did,
                              claims={"platformType": "adas"}, issued_at=NOW, validity_s=10)
    ecu.store(hw_cred)
    app.store(rogue.issue(credential_type=SW_CREDENTIAL, subject=app.did,
                          claims={"approvedPlatforms": ["adas"]}, issued_at=NOW))
    decision = controller.authorize_placement(app, ecu, now=NOW + 60)
    assert (decision.reason, decision.verification_steps) == (
        f"{ecu.did} presentation failed: credential {hw_cred.credential_id}: expired", 2)
    decision = controller.authorize_placement(app, ecu, now=NOW + 5)
    assert (decision.reason, decision.verification_steps) == (
        f"software credential untrusted: issuer {rogue.did} not reachable from any anchor", 3)
