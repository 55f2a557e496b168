"""Multi-service mobility SSI and offline tokens (paper §IV-C, refs [33], [34]).

"Other services like parking or highway fees have similar
interoperability issues due to many players in the market. For these,
SSI could build a common basis, as investigated in the MoveID project.
Another advantage of SSI solutions is the support for offline scenarios
... combining verifiable credentials and blockchain tokens for traceable
and offline token operations [34]."

Two pieces:

* :class:`MobilityServiceDirectory` — the MoveID claim made executable:
  charging, parking, and tolling operators all verify the *same* wallet
  and credential machinery; onboarding a vehicle to another service is
  one credential, not a new identity silo. :meth:`credential_reuse_ratio`
  quantifies it.
* :class:`OfflineTokenBook` — [34]-style offline-capable payment tokens:
  the issuer signs value tokens bound to a wallet; a merchant without
  connectivity verifies the signature chain offline and records the
  spend; double-spends are undetectable offline but are **traceable and
  attributable** at reconciliation time (the design's documented
  trade-off, which the tests pin).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.crypto import ed25519
from repro.ssi.registry import VerifiableDataRegistry
from repro.ssi.trust import TrustPolicy
from repro.ssi.wallet import Wallet

__all__ = ["ServiceKind", "MobilityServiceDirectory", "OfflineToken",
           "OfflineTokenBook", "SpendRecord"]

#: Credential types per mobility service (one namespace, shared stack).
ServiceKind = str
SERVICE_CREDENTIALS: dict[ServiceKind, str] = {
    "charging": "ChargingContract",
    "parking": "ParkingContract",
    "tolling": "TollingContract",
}


@dataclass
class MobilityServiceDirectory:
    """Charging / parking / tolling operators over one SSI substrate."""

    registry: VerifiableDataRegistry
    policy: TrustPolicy
    operators: dict[ServiceKind, Wallet] = field(default_factory=dict)

    def register_operator(self, service: ServiceKind, operator: Wallet) -> None:
        if service not in SERVICE_CREDENTIALS:
            raise ValueError(f"unknown service {service!r}")
        self.operators[service] = operator
        self.policy.add_anchor(SERVICE_CREDENTIALS[service], str(operator.did))

    def subscribe(self, vehicle: Wallet, service: ServiceKind, *,
                  now: float) -> None:
        operator = self.operators[service]
        vehicle.store(operator.issue(
            credential_type=SERVICE_CREDENTIALS[service],
            subject=vehicle.did,
            claims={"service": service},
            issued_at=now,
        ))

    def authorize(self, vehicle: Wallet, service: ServiceKind, *,
                  now: float) -> bool:
        """A service operator authorizes the vehicle via presentation."""
        ctype = SERVICE_CREDENTIALS[service]
        challenge = hashlib.sha256(f"{service}:{vehicle.did}:{now}".encode()).digest()[:16]
        try:
            presentation = vehicle.present([ctype], challenge)
        except KeyError:
            return False
        return bool(self.policy.verify_presentation(presentation, now=now,
                                                    expected_challenge=challenge))

    def services_per_identity(self, vehicle: Wallet) -> int:
        """How many mobility services this single DID can use."""
        return len({
            c.credential_type for c in vehicle.credentials
            if c.credential_type in SERVICE_CREDENTIALS.values()
        })


@dataclass(frozen=True)
class OfflineToken:
    """A signed value token bound to a holder DID."""

    token_id: str
    issuer: str
    holder: str
    value: int
    signature: bytes

    def signing_input(self) -> bytes:
        return f"{self.token_id}|{self.issuer}|{self.holder}|{self.value}".encode()


@dataclass(frozen=True)
class SpendRecord:
    """A merchant's offline record of one token spend."""

    token_id: str
    merchant: str
    spender: str
    spend_proof: bytes   # spender's signature over (token, merchant)


class OfflineTokenBook:
    """Issue, spend offline, and reconcile value tokens ([34]).

    Offline verification needs only the issuer's cached public key; the
    cost is that a double-spend across two offline merchants is caught
    only at reconciliation — but then it is *provable* (two spend proofs
    signed by the same holder key), which is the traceability property
    [34] targets.
    """

    def __init__(self, issuer: Wallet, registry: VerifiableDataRegistry) -> None:
        self.issuer = issuer
        self.registry = registry
        self._counter = 0
        self.issued: dict[str, OfflineToken] = {}

    def issue_token(self, holder: Wallet, value: int) -> OfflineToken:
        if value <= 0:
            raise ValueError("token value must be positive")
        self._counter += 1
        token_id = f"tok-{self._counter}"
        draft = OfflineToken(token_id, str(self.issuer.did), str(holder.did),
                             value, b"")
        token = OfflineToken(token_id, draft.issuer, draft.holder, value,
                             self.issuer.keypair.sign(draft.signing_input()))
        self.issued[token_id] = token
        return token

    # -- merchant side (offline) ---------------------------------------------

    @staticmethod
    def spend_proof(token: OfflineToken, spender: Wallet, merchant: str) -> bytes:
        return spender.keypair.sign(
            token.signing_input() + merchant.encode())

    def verify_offline(self, token: OfflineToken, proof: bytes, merchant: str,
                       *, cached_issuer_key: bytes,
                       cached_holder_key: bytes) -> bool:
        """Merchant-side verification with no connectivity.

        Checks the issuer signature on the token and the holder's spend
        proof, both against *cached* keys.
        """
        if not ed25519.verify(cached_issuer_key, token.signing_input(),
                              token.signature):
            return False
        return ed25519.verify(cached_holder_key,
                              token.signing_input() + merchant.encode(), proof)

    # -- reconciliation (online) ----------------------------------------------

    def reconcile(self, records: list[SpendRecord]) -> dict[str, list[SpendRecord]]:
        """Detect double-spends: token ids spent at more than one merchant.

        Returns ``{token_id: [conflicting records]}`` — each conflict
        carries the holder-signed proofs, so the double-spender is
        cryptographically attributable.
        """
        by_token: dict[str, list[SpendRecord]] = {}
        for record in records:
            by_token.setdefault(record.token_id, []).append(record)
        return {
            token_id: spends for token_id, spends in by_token.items()
            if len(spends) > 1
        }
