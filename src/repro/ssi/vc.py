"""Verifiable credentials and presentations (paper §IV, refs [30], [32]).

A credential is a set of claims an **issuer** signs about a **subject**;
a presentation is one or more credentials a **holder** signs over a
verifier-chosen challenge (proving possession, preventing replay).
Signatures are Ed25519 over the canonical JSON of the document, and
verification resolves keys through the registry — so key rotation,
revocation, and unresolvable issuers all behave like the real ecosystem.

Time is explicit (``now`` parameters, seconds since epoch) so every test
and benchmark is deterministic.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace

from repro.ssi.did import Did, KeyPair
from repro.ssi.registry import VerifiableDataRegistry

__all__ = ["VerifiableCredential", "VerifiablePresentation", "VerificationResult"]


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of credential/presentation verification.

    ``untrusted`` marks the one failure a trust policy adds on top of the
    cryptographic checks: every signature, window and revocation check
    held, but no anchor reaches the issuer.
    """

    valid: bool
    reason: str = "ok"
    untrusted: bool = False

    def __bool__(self) -> bool:
        return self.valid


@dataclass(frozen=True)
class VerifiableCredential:
    """A signed claim set.

    Attributes:
        credential_id: unique id (derived from content when issued).
        credential_type: e.g. "CompatibilityCredential",
            "ChargingContract", "AccreditationCredential".
        issuer / subject: DIDs as strings.
        claims: the attested attributes.
        issued_at / expires_at: validity window (epoch seconds).
        proof: issuer signature (empty until issued).
    """

    credential_id: str
    credential_type: str
    issuer: str
    subject: str
    claims: dict
    issued_at: float
    expires_at: float
    proof: bytes = b""

    def signing_input(self) -> bytes:
        body = {
            "id": self.credential_id,
            "type": self.credential_type,
            "issuer": self.issuer,
            "subject": self.subject,
            "claims": self.claims,
            "issuedAt": self.issued_at,
            "expiresAt": self.expires_at,
        }
        return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()

    @classmethod
    def issue(cls, *, credential_type: str, issuer: Did, issuer_key: KeyPair,
              subject: Did | str, claims: dict, issued_at: float,
              validity_s: float = 365 * 86400.0) -> "VerifiableCredential":
        """Create and sign a credential."""
        if validity_s <= 0:
            raise ValueError("validity must be positive")
        draft = cls(
            credential_id="",
            credential_type=credential_type,
            issuer=str(issuer),
            subject=str(subject),
            claims=dict(claims),
            issued_at=issued_at,
            expires_at=issued_at + validity_s,
        )
        cred_id = "urn:vc:" + hashlib.sha256(draft.signing_input()).hexdigest()[:32]
        draft = replace(draft, credential_id=cred_id)
        return replace(draft, proof=issuer_key.sign(draft.signing_input()))

    def verify(self, registry: VerifiableDataRegistry, *, now: float,
               check_revocation: bool = True) -> VerificationResult:
        """Full verification: signature (the registry's verdict, checked
        once per issuer document version), validity window, revocation."""
        if not self.proof:
            return VerificationResult(False, "unsigned credential")
        if now < self.issued_at:
            return VerificationResult(False, "not yet valid")
        if now > self.expires_at:
            return VerificationResult(False, "expired")
        try:
            signed = registry.verify_signed(self.issuer, self.signing_input(), self.proof)
        except KeyError:
            return VerificationResult(False, f"issuer {self.issuer} unresolvable")
        if not signed:
            return VerificationResult(False, "bad signature")
        if check_revocation and registry.is_revoked(self.credential_id):
            return VerificationResult(False, "revoked")
        return VerificationResult(True)


@dataclass(frozen=True)
class VerifiablePresentation:
    """Holder-signed bundle of credentials over a verifier challenge."""

    holder: str
    credentials: tuple[VerifiableCredential, ...]
    challenge: bytes
    proof: bytes = b""

    def signing_input(self) -> bytes:
        digest = hashlib.sha256()
        digest.update(self.holder.encode())
        digest.update(self.challenge)
        for credential in self.credentials:
            digest.update(credential.signing_input())
            digest.update(credential.proof)
        return digest.digest()

    @classmethod
    def create(cls, *, holder: Did, holder_key: KeyPair,
               credentials: list[VerifiableCredential],
               challenge: bytes) -> "VerifiablePresentation":
        if not credentials:
            raise ValueError("a presentation needs at least one credential")
        draft = cls(str(holder), tuple(credentials), challenge)
        return replace(draft, proof=holder_key.sign(draft.signing_input()))

    def verify(self, registry: VerifiableDataRegistry, *, now: float,
               expected_challenge: bytes,
               check_revocation: bool = True) -> VerificationResult:
        """Verify holder binding, challenge freshness, and every credential."""
        if self.challenge != expected_challenge:
            return VerificationResult(False, "challenge mismatch (replay?)")
        try:
            holder_doc = registry.resolve(self.holder)
        except KeyError:
            return VerificationResult(False, f"holder {self.holder} unresolvable")
        if not holder_doc.verify(self.signing_input(), self.proof):
            return VerificationResult(False, "bad holder signature")
        for credential in self.credentials:
            if credential.subject != self.holder:
                return VerificationResult(
                    False, f"credential {credential.credential_id} not bound to holder")
            result = credential.verify(registry, now=now,
                                       check_revocation=check_revocation)
            if not result:
                return VerificationResult(
                    False, f"credential {credential.credential_id}: {result.reason}")
        return VerificationResult(True)
