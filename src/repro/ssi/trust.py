"""Multi-anchor trust policy and accreditation chains (paper §IV).

The paper's central SSI argument: "hardware, vehicle software, and cloud
components often originate from different companies that may want to
check the authenticity of a piece of software by themselves. This
creates the need for a distributed authentication and certification
infrastructure with **multiple trust anchors**."

:class:`TrustPolicy` holds, per credential type, the set of anchor DIDs
a verifier accepts.  An issuer is trusted either directly (it *is* an
anchor) or through an **accreditation chain**: anchor → accreditation
credential → intermediate issuer → ... → leaf issuer, each hop a signed
"AccreditationCredential" whose subject is the next issuer.  This is the
SSI analogue of a certificate chain, but with as many independent roots
as there are stakeholders — the property the Fig. 7 bench quantifies
against a single-root PKI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ssi.registry import VerifiableDataRegistry
from repro.ssi.vc import VerifiableCredential, VerifiablePresentation, VerificationResult

__all__ = ["TrustPolicy", "ACCREDITATION_TYPE"]

ACCREDITATION_TYPE = "AccreditationCredential"


@dataclass
class TrustPolicy:
    """Anchors per credential type + accreditation-chain verification.

    Args:
        registry: the shared verifiable data registry.
        max_chain_length: accreditation hops allowed between an anchor
            and a leaf issuer (1 = issuer must be directly accredited).
    """

    registry: VerifiableDataRegistry
    max_chain_length: int = 3
    _anchors: dict[str, set[str]] = field(default_factory=dict)
    _accreditations: dict[str, list[VerifiableCredential]] = field(default_factory=dict)

    def add_anchor(self, credential_type: str, anchor_did: str) -> None:
        """Accept ``anchor_did`` as a root of trust for ``credential_type``."""
        self._anchors.setdefault(credential_type, set()).add(str(anchor_did))

    def anchors_for(self, credential_type: str) -> set[str]:
        return set(self._anchors.get(credential_type, set()))

    def record_accreditation(self, credential: VerifiableCredential) -> None:
        """Register an accreditation credential (issuer accredits subject)."""
        if credential.credential_type != ACCREDITATION_TYPE:
            raise ValueError("not an accreditation credential")
        self._accreditations.setdefault(credential.subject, []).append(credential)

    def _issuer_trusted(self, issuer: str, credential_type: str, *,
                        now: float, depth: int) -> bool:
        anchors = self._anchors.get(credential_type, set())
        if issuer in anchors:
            return True
        if depth >= self.max_chain_length:
            return False
        for accreditation in self._accreditations.get(issuer, []):
            scope = accreditation.claims.get("accreditedFor", [])
            if credential_type not in scope:
                continue
            if not accreditation.verify(self.registry, now=now):
                continue
            if self._issuer_trusted(accreditation.issuer, credential_type,
                                    now=now, depth=depth + 1):
                return True
        return False

    def _anchored(self, credential: VerifiableCredential, *,
                  now: float) -> VerificationResult:
        if self._issuer_trusted(credential.issuer, credential.credential_type,
                                now=now, depth=0):
            return VerificationResult(True)
        return VerificationResult(
            False, f"issuer {credential.issuer} not reachable from any anchor",
            untrusted=True)

    def verify_credential(self, credential: VerifiableCredential, *,
                          now: float,
                          check_revocation: bool = True) -> VerificationResult:
        """Cryptographic verification + trust-anchor policy check.

        ``check_revocation=False`` is the offline-verification path: only
        cached/anchored material is consulted (see
        :mod:`repro.ssi.charging`).
        """
        result = credential.verify(self.registry, now=now,
                                   check_revocation=check_revocation)
        return self._anchored(credential, now=now) if result else result

    def verify_presentation(self, presentation: VerifiablePresentation, *,
                            now: float, expected_challenge: bytes,
                            check_revocation: bool = True) -> VerificationResult:
        """One transaction's check: challenge and holder binding, each
        credential once, then the anchor policy on each credential.  The
        first failure wins, so an untrusted issuer (``result.untrusted``)
        is reported only when the presentation itself verified."""
        result = presentation.verify(self.registry, now=now,
                                     expected_challenge=expected_challenge,
                                     check_revocation=check_revocation)
        for credential in presentation.credentials:
            if not result:
                break
            result = self._anchored(credential, now=now)
        return result

    def chain_length_to_anchor(self, issuer: str, credential_type: str, *,
                               now: float) -> int | None:
        """Shortest accreditation chain from an anchor to ``issuer`` (0 = anchor).

        Returns None when no chain exists within ``max_chain_length``.
        """
        if issuer in self._anchors.get(credential_type, set()):
            return 0
        best: int | None = None
        for accreditation in self._accreditations.get(issuer, []):
            if credential_type not in accreditation.claims.get("accreditedFor", []):
                continue
            if not accreditation.verify(self.registry, now=now):
                continue
            parent = self.chain_length_to_anchor(accreditation.issuer,
                                                 credential_type, now=now)
            if parent is not None and parent + 1 <= self.max_chain_length:
                candidate = parent + 1
                if best is None or candidate < best:
                    best = candidate
        return best
