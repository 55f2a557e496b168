"""Decentralized identifiers and DID documents (paper §IV, ref [30]).

Self-sovereign identity is the paper's proposed answer to the SDV trust
problem: "asynchronous cryptography with different trust anchors stored
in an immutable, publicly available storage".  This module provides the
identity layer:

* :class:`KeyPair` — Ed25519 signing keys (deterministic from a seed
  label for reproducibility);
* :class:`Did` — identifiers in a did:web-like scheme
  (``did:vreg:<name>``, resolved against the in-memory registry of
  :mod:`repro.ssi.registry`);
* :class:`DidDocument` — the public document: verification methods
  (public keys) and service endpoints, with canonical serialization so
  documents can be signed and stored immutably.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.crypto import ed25519

__all__ = ["KeyPair", "Did", "VerificationMethod", "DidDocument"]

_METHOD = "vreg"


@dataclass(frozen=True)
class KeyPair:
    """An Ed25519 key pair."""

    secret: bytes
    public: bytes

    @classmethod
    def from_seed_label(cls, label: str) -> "KeyPair":
        """Deterministic key generation from a textual label."""
        secret = hashlib.sha256(f"ssi-key:{label}".encode()).digest()
        return cls(secret, ed25519.generate_public_key(secret))

    def sign(self, message: bytes) -> bytes:
        return ed25519.sign(self.secret, message)


@dataclass(frozen=True)
class Did:
    """A decentralized identifier ``did:vreg:<name>``."""

    name: str

    def __post_init__(self) -> None:
        if not self.name or ":" in self.name or " " in self.name:
            raise ValueError(f"invalid DID name {self.name!r}")

    def __str__(self) -> str:
        return f"did:{_METHOD}:{self.name}"

    @classmethod
    def parse(cls, text: str) -> "Did":
        parts = text.split(":")
        if len(parts) != 3 or parts[0] != "did" or parts[1] != _METHOD:
            raise ValueError(f"not a did:{_METHOD} identifier: {text!r}")
        return cls(parts[2])


@dataclass(frozen=True)
class VerificationMethod:
    """A public key bound to a DID."""

    key_id: str
    public_key: bytes

    def to_dict(self) -> dict:
        return {"id": self.key_id, "publicKeyHex": self.public_key.hex()}


@dataclass(frozen=True)
class DidDocument:
    """The resolvable public document for a DID.

    Immutable: a registered version never changes, so the registry can
    remember a signature verdict per version (a rotation registers a new
    document rather than editing this one).
    """

    did: Did
    verification_methods: tuple[VerificationMethod, ...] = ()
    services: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "verification_methods", tuple(self.verification_methods))

    @classmethod
    def for_keypair(cls, did: Did, keypair: KeyPair,
                    services: dict[str, str] | None = None) -> "DidDocument":
        method = VerificationMethod(f"{did}#key-1", keypair.public)
        return cls(did, (method,), dict(services or {}))

    def primary_key(self) -> bytes:
        if not self.verification_methods:
            raise ValueError(f"{self.did} has no verification methods")
        return self.verification_methods[0].public_key

    def verify(self, message: bytes, signature: bytes) -> bool:
        """True if any of the document's keys verifies the signature."""
        return any(
            ed25519.verify(vm.public_key, message, signature)
            for vm in self.verification_methods
        )

    def to_json(self) -> str:
        """Canonical serialization (stable key order)."""
        return json.dumps({
            "id": str(self.did),
            "verificationMethod": [vm.to_dict() for vm in self.verification_methods],
            "service": dict(sorted(self.services.items())),
        }, sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()
