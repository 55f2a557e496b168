"""Identity wallets: key custody, credential storage, presentations.

Every actor in the §IV use cases — ECUs, software components, vehicles,
charging providers, cloud services — is a :class:`Wallet`: it owns a
DID + key pair, registers its DID document, accumulates credentials
about itself, and answers verifier challenges with presentations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.rng import python_rng
from repro.ssi.did import Did, DidDocument, KeyPair
from repro.ssi.registry import VerifiableDataRegistry
from repro.ssi.vc import VerifiableCredential, VerifiablePresentation

__all__ = ["Wallet"]


@dataclass
class Wallet:
    """An SSI actor: DID, keys, and held credentials."""

    did: Did
    keypair: KeyPair
    credentials: list[VerifiableCredential] = field(default_factory=list)

    @classmethod
    def create(cls, name: str, registry: VerifiableDataRegistry,
               services: dict[str, str] | None = None) -> "Wallet":
        """Generate an identity and register its DID document."""
        did = Did(name)
        keypair = KeyPair.from_seed_label(name)
        registry.register(DidDocument.for_keypair(did, keypair, services))
        return cls(did, keypair)

    def rotate_keys(self, registry: VerifiableDataRegistry, *,
                    keep_old_key: bool = True) -> KeyPair:
        """Rotate to a fresh key pair and publish the new DID document.

        With ``keep_old_key`` the new document lists both keys, so
        signatures made before the rotation still verify (the standard
        DID-rotation grace behaviour); without it, old signatures die
        immediately (compromise recovery).
        """
        from repro.ssi.did import VerificationMethod

        new_keypair = KeyPair.from_seed_label(
            f"{self.did.name}:rotation:{len(registry.history(self.did)) + 1}")
        methods = (VerificationMethod(f"{self.did}#key-new", new_keypair.public),)
        if keep_old_key:
            methods += (VerificationMethod(f"{self.did}#key-old", self.keypair.public),)
        registry.register(DidDocument(self.did, methods))
        self.keypair = new_keypair
        return new_keypair

    # -- issuing -------------------------------------------------------------

    def issue(self, *, credential_type: str, subject: Did | str, claims: dict,
              issued_at: float, validity_s: float = 365 * 86400.0) -> VerifiableCredential:
        """Issue a credential about ``subject`` signed by this wallet."""
        return VerifiableCredential.issue(
            credential_type=credential_type,
            issuer=self.did,
            issuer_key=self.keypair,
            subject=subject,
            claims=claims,
            issued_at=issued_at,
            validity_s=validity_s,
        )

    # -- holding -------------------------------------------------------------

    def store(self, credential: VerifiableCredential) -> None:
        if credential.subject != str(self.did):
            raise ValueError("wallet only stores credentials about its own DID")
        self.credentials.append(credential)

    def find(self, credential_type: str) -> list[VerifiableCredential]:
        return [c for c in self.credentials if c.credential_type == credential_type]

    def present(self, credential_types: list[str],
                challenge: bytes) -> VerifiablePresentation:
        """Build a presentation of the newest credential of each type."""
        selected = []
        for ctype in credential_types:
            matching = self.find(ctype)
            if not matching:
                raise KeyError(f"no credential of type {ctype!r} in wallet")
            selected.append(max(matching, key=lambda c: c.issued_at))
        return VerifiablePresentation.create(
            holder=self.did, holder_key=self.keypair,
            credentials=selected, challenge=challenge,
        )

    def new_challenge(self, label: str = "challenge") -> bytes:
        """Verifier-side helper: a deterministic-per-label nonce."""
        return python_rng(f"{self.did}:{label}").randbytes(16)
