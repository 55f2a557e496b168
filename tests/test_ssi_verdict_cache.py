"""A cached credential-signature verdict never outlives the facts it rests on.

The registry remembers whether a credential's signature verifies under
its issuer's DID document, once per document version.  Each case below
first gets a credential's verdict cached, then changes the world, and
checks that verification gives the same reason an uncached check gives:
revocation, expiry and anchor reachability are checked every time, a
rotation publishes a new document version, and a forgery has its own
signing input.
"""

from dataclasses import FrozenInstanceError, replace

import pytest

from repro.crypto import ed25519
from repro.ssi.did import Did, DidDocument, KeyPair
from repro.ssi.registry import VerifiableDataRegistry
from repro.ssi.trust import ACCREDITATION_TYPE, TrustPolicy
from repro.ssi.wallet import Wallet

NOW = 1_700_000_000.0
CTYPE = "Test"


@pytest.fixture()
def verifies(monkeypatch):
    """Counts the Ed25519 verifications run from here on."""
    calls = []
    real = ed25519.verify

    def counting(public: bytes, message: bytes, signature: bytes) -> bool:
        calls.append(message)
        return real(public, message, signature)

    monkeypatch.setattr(ed25519, "verify", counting)
    return calls


@pytest.fixture()
def world():
    registry = VerifiableDataRegistry()
    issuer = Wallet.create("issuer", registry)
    holder = Wallet.create("holder", registry)
    cred = issuer.issue(credential_type=CTYPE, subject=holder.did,
                        claims={"role": "user"}, issued_at=NOW, validity_s=100)
    return registry, issuer, cred


def cached(cred, registry, verifies):
    """Verify twice; the second verdict must come from the cache."""
    assert cred.verify(registry, now=NOW + 1)
    before = len(verifies)
    assert cred.verify(registry, now=NOW + 1)
    assert len(verifies) == before
    return cred


def test_revocation_after_a_cached_verdict(world, verifies):
    registry, issuer, cred = world
    cached(cred, registry, verifies)
    registry.revoke_credential(cred.credential_id, issuer.did)
    assert cred.verify(registry, now=NOW + 1).reason == "revoked"
    # the offline path skips the revocation list: the documented trade-off
    assert cred.verify(registry, now=NOW + 1, check_revocation=False)


def test_rotation_without_the_old_key_after_a_cached_verdict(world, verifies):
    registry, issuer, cred = world
    cached(cred, registry, verifies)
    issuer.rotate_keys(registry, keep_old_key=False)
    before = len(verifies)
    assert cred.verify(registry, now=NOW + 1).reason == "bad signature"
    assert len(verifies) > before     # the new document version is checked


def test_grace_rotation_after_a_cached_verdict(world, verifies):
    registry, issuer, cred = world
    cached(cred, registry, verifies)
    issuer.rotate_keys(registry, keep_old_key=True)
    assert cred.verify(registry, now=NOW + 1)


def test_expiry_after_a_cached_verdict(world, verifies):
    registry, _, cred = world
    cached(cred, registry, verifies)
    assert cred.verify(registry, now=NOW + 101).reason == "expired"
    assert cred.verify(registry, now=NOW - 1).reason == "not yet valid"


def test_forgery_reusing_id_and_proof_after_a_cached_verdict(world, verifies):
    registry, _, cred = world
    cached(cred, registry, verifies)
    forged = replace(cred, claims={"role": "admin"})
    assert (forged.credential_id, forged.proof) == (cred.credential_id, cred.proof)
    assert forged.verify(registry, now=NOW + 1).reason == "bad signature"
    assert forged.verify(registry, now=NOW + 1).reason == "bad signature"
    assert cred.verify(registry, now=NOW + 1)


def test_revoked_accreditation_after_cached_verdicts(verifies):
    registry = VerifiableDataRegistry()
    policy = TrustPolicy(registry)
    root, body, oem, ecu = (Wallet.create(name, registry)
                            for name in ("root", "body", "oem", "ecu"))
    policy.add_anchor(CTYPE, str(root.did))
    hops = [root.issue(credential_type=ACCREDITATION_TYPE, subject=body.did,
                       claims={"accreditedFor": [CTYPE]}, issued_at=NOW),
            body.issue(credential_type=ACCREDITATION_TYPE, subject=oem.did,
                       claims={"accreditedFor": [CTYPE]}, issued_at=NOW)]
    for hop in hops:
        policy.record_accreditation(hop)
    cred = oem.issue(credential_type=CTYPE, subject=ecu.did, claims={}, issued_at=NOW)
    assert policy.verify_credential(cred, now=NOW + 1)
    before = len(verifies)
    assert policy.verify_credential(cred, now=NOW + 1)
    assert policy.chain_length_to_anchor(str(oem.did), CTYPE, now=NOW + 1) == 2
    assert len(verifies) == before    # leaf and both hops came from the cache

    registry.revoke_credential(hops[0].credential_id, root.did)
    result = policy.verify_credential(cred, now=NOW + 1)
    assert (result.valid, result.reason) == (
        False, f"issuer {oem.did} not reachable from any anchor")
    assert result.untrusted
    assert policy.chain_length_to_anchor(str(oem.did), CTYPE, now=NOW + 1) is None


def test_presentation_signatures_are_never_cached(world, verifies):
    registry, _, cred = world
    holder = Wallet.create("holder2", registry)
    mine = replace(cred, subject=str(holder.did))  # bad issuer signature
    holder.store(mine)
    pres = holder.present([CTYPE], b"\x01" * 16)
    for _ in range(3):
        before = len(verifies)
        assert pres.verify(registry, now=NOW + 1, expected_challenge=b"\x01" * 16) \
            .reason.endswith(": bad signature")
        assert verifies[before] == pres.signing_input()   # holder signature re-checked


def test_verdict_cache_is_bounded(monkeypatch):
    from repro.ssi import registry as registry_module

    monkeypatch.setattr(registry_module, "VERDICT_CACHE_SIZE", 4)
    registry = VerifiableDataRegistry()
    issuer = Wallet.create("issuer", registry)
    creds = [issuer.issue(credential_type=CTYPE, subject="did:vreg:x",
                          claims={"n": n}, issued_at=NOW) for n in range(10)]
    for cred in creds:
        assert cred.verify(registry, now=NOW + 1)
        assert len(registry._verdicts) <= 4


def test_did_documents_are_immutable():
    doc = DidDocument(Did("a"), [DidDocument.for_keypair(
        Did("a"), KeyPair.from_seed_label("a")).verification_methods[0]])
    assert isinstance(doc.verification_methods, tuple)
    with pytest.raises(FrozenInstanceError):
        doc.verification_methods = ()   # type: ignore[misc]
    assert doc.to_json() == DidDocument.for_keypair(
        Did("a"), KeyPair.from_seed_label("a")).to_json()


def test_key_objects_are_decoded_once_and_bounded(monkeypatch):
    monkeypatch.setattr(ed25519, "KEY_CACHE_SIZE", 3)
    monkeypatch.setattr(ed25519, "_private_keys", {})
    monkeypatch.setattr(ed25519, "_public_keys", {})
    secrets = [bytes([n]) * 32 for n in range(5)]
    for secret in secrets:
        public = ed25519.generate_public_key(secret)
        signature = ed25519.sign(secret, b"m")
        assert ed25519.sign(bytearray(secret), b"m") == signature
        assert ed25519.verify(public, b"m", signature)
        assert not ed25519.verify(public, b"n", signature)
        assert len(ed25519._private_keys) <= 3 and len(ed25519._public_keys) <= 3
    assert secrets[-1] in ed25519._private_keys
