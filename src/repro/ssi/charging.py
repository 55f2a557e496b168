"""Plug-and-charge authentication: hierarchical PKI vs SSI (paper §IV-C).

"We have many charging station operators, different vehicle types, and
many possible charging service providers ... ISO-15118 builds up a
complex public key infrastructure; it was shown in [32] that this can
also be done by using SSI technology."

Two interchangeable flows over the same cast (vehicle, charging-station
operator CPO, e-mobility provider eMSP):

* :class:`Iso15118Pki` — a single V2G root CA, sub-CAs per role, X.509-
  style chains; verification requires the full chain and an online OCSP
  analogue. Roaming means every CPO must trust the same single root.
* :class:`SsiChargingFlow` — the vehicle holds a ``ChargingContract``
  credential from its eMSP; the CPO trusts any eMSP anchored in its
  policy (multiple, independent anchors) and can verify **offline** —
  the [34] scenario — because only cached anchor documents are needed.

The Fig. 7 bench compares anchor counts, chain lengths, message counts,
and offline capability between the two.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.ssi.did import KeyPair
from repro.ssi.registry import VerifiableDataRegistry
from repro.ssi.trust import TrustPolicy
from repro.ssi.wallet import Wallet

__all__ = ["CertError", "Certificate", "Iso15118Pki", "ChargeAuthorization", "SsiChargingFlow", "CHARGING_CONTRACT"]

CHARGING_CONTRACT = "ChargingContract"


class CertError(Exception):
    """Raised for malformed or unverifiable certificates."""


@dataclass(frozen=True)
class Certificate:
    """A minimal X.509 stand-in: subject, issuer, public key, signature."""

    subject: str
    issuer: str
    public_key: bytes
    signature: bytes

    def signing_input(self) -> bytes:
        return f"{self.subject}|{self.issuer}".encode() + self.public_key


class Iso15118Pki:
    """Single-root hierarchical PKI for plug-and-charge.

    Structure: V2G root → {CPO sub-CA, eMSP sub-CA} → leaf certs
    (charging stations, contract certs). All parties must embed the one
    root — the interoperability pain point the paper contrasts SSI with.
    """

    def __init__(self, root_name: str = "v2g-root") -> None:
        self._keys: dict[str, KeyPair] = {}
        self._certs: dict[str, Certificate] = {}
        self._revoked: set[str] = set()
        self.root_name = root_name
        root_key = self._keypair(root_name)
        self._certs[root_name] = Certificate(
            root_name, root_name, root_key.public,
            root_key.sign(f"{root_name}|{root_name}".encode() + root_key.public),
        )

    def _keypair(self, name: str) -> KeyPair:
        if name not in self._keys:
            self._keys[name] = KeyPair.from_seed_label(f"pki:{name}")
        return self._keys[name]

    def issue(self, subject: str, issuer: str) -> Certificate:
        """Issue a certificate for ``subject`` signed by ``issuer``."""
        if issuer not in self._certs:
            raise CertError(f"unknown issuer {issuer!r}")
        subject_key = self._keypair(subject)
        issuer_key = self._keypair(issuer)
        cert = Certificate(
            subject, issuer, subject_key.public,
            issuer_key.sign(f"{subject}|{issuer}".encode() + subject_key.public),
        )
        self._certs[subject] = cert
        return cert

    def revoke(self, subject: str) -> None:
        self._revoked.add(subject)

    def chain_to_root(self, subject: str) -> list[Certificate]:
        """The verification chain leaf → root; raises on a broken chain."""
        chain = []
        current = subject
        for _ in range(10):
            cert = self._certs.get(current)
            if cert is None:
                raise CertError(f"missing certificate {current!r}")
            chain.append(cert)
            if cert.issuer == cert.subject:
                return chain
            current = cert.issuer
        raise CertError("chain too long")

    def verify(self, subject: str, *, online: bool = True) -> bool:
        """Verify the chain; revocation is only checkable online (OCSP)."""
        from repro.crypto import ed25519

        try:
            chain = self.chain_to_root(subject)
        except CertError:
            return False
        if chain[-1].subject != self.root_name:
            return False
        for cert in chain:
            issuer_key = self._keys[cert.issuer]
            if not ed25519.verify(issuer_key.public, cert.signing_input(),
                                  cert.signature):
                return False
            if online and cert.subject in self._revoked:
                return False
        return True

    @property
    def trust_anchor_count(self) -> int:
        return 1  # the defining property of the hierarchical design

    def message_count(self) -> int:
        """Messages in the ISO 15118 contract-authentication exchange
        (certificate installation + chain transfer + OCSP)."""
        return 6


@dataclass(frozen=True)
class ChargeAuthorization:
    """Outcome of a charging authorization attempt."""

    authorized: bool
    vehicle: str
    provider: str
    offline: bool
    reason: str


@dataclass
class SsiChargingFlow:
    """SSI-based plug-and-charge: contract credentials + anchor policy.

    The CPO's trust policy anchors every eMSP it roams with — adding a
    roaming partner is one ``add_anchor`` call, not a re-rooting of a
    PKI. Offline mode skips registry revocation lookups and relies on
    cached DID documents (the [34] offline-token scenario).
    """

    registry: VerifiableDataRegistry
    policy: TrustPolicy
    _cached_docs: dict[str, object] = field(default_factory=dict)

    def subscribe(self, vehicle: Wallet, provider: Wallet, *, now: float,
                  tariff: str = "standard") -> None:
        """The eMSP issues a charging contract to the vehicle."""
        credential = provider.issue(
            credential_type=CHARGING_CONTRACT,
            subject=vehicle.did,
            claims={"tariff": tariff, "provider": str(provider.did)},
            issued_at=now,
        )
        vehicle.store(credential)

    def cache_for_offline(self, dids: list[str]) -> None:
        """Pre-cache DID documents at the charging station."""
        for did in dids:
            self._cached_docs[did] = self.registry.resolve(did)

    def authorize(self, vehicle: Wallet, *, now: float,
                  offline: bool = False) -> ChargeAuthorization:
        """The charging station authorizes a plug-in vehicle."""
        challenge = hashlib.sha256(f"plug:{vehicle.did}:{now}".encode()).digest()[:16]
        try:
            presentation = vehicle.present([CHARGING_CONTRACT], challenge)
        except KeyError:
            return ChargeAuthorization(False, str(vehicle.did), "-", offline,
                                       "no charging contract")
        contract = presentation.credentials[0]
        if offline:
            # Offline: cached DID documents only, no revocation lookup.
            for did in (presentation.holder, contract.issuer):
                if did not in self._cached_docs:
                    return ChargeAuthorization(False, str(vehicle.did),
                                               contract.issuer, offline,
                                               f"{did} not cached for offline use")
        result = self.policy.verify_presentation(presentation, now=now,
                                                 expected_challenge=challenge,
                                                 check_revocation=not offline)
        return ChargeAuthorization(result.valid, str(vehicle.did), contract.issuer,
                                   offline, result.reason)

    def message_count(self) -> int:
        """Messages in the SSI exchange (challenge + presentation + result)."""
        return 3
