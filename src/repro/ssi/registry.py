"""Verifiable data registry: immutable DID storage + revocation lists.

The paper's §IV describes SSI as resting on "different trust anchors
stored in an immutable, publicly available storage".  This module is
that storage:

* :class:`VerifiableDataRegistry` — append-only DID-document store with
  a hash chain over entries (immutability is checkable, not assumed);
  re-registration appends a new version rather than rewriting history;
* revocation — credential ids can be revoked by their issuer; the
  registry records who revoked what, and verifiers consult it online
  (the *offline* verification path in :mod:`repro.ssi.charging` skips
  this lookup and accepts the staleness trade-off, as the paper's [34]
  offline scenario discussion does).

Documents are immutable and a DID's versions only grow, so whether a
signature verifies under a DID's latest document is fixed by the DID,
its version count, the message and the signature.
:meth:`VerifiableDataRegistry.verify_signed` remembers that verdict
under exactly those four values, so a credential signature is checked
once per issuer document version; a rotation adds a version and the old
verdicts stop matching.  Validity windows, revocation and trust anchors
are not part of the verdict and are checked by every caller every time.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

from repro.ssi.did import Did, DidDocument

__all__ = ["RegistryEntry", "VerifiableDataRegistry",
           "RegistryUnavailable", "CachingResolver"]

#: Signature verdicts a registry keeps before it empties its cache.
VERDICT_CACHE_SIZE = 1024


@dataclass(frozen=True)
class RegistryEntry:
    """One immutable ledger entry."""

    sequence: int
    did: str
    content_hash: str
    previous_hash: str

    def entry_hash(self) -> str:
        material = f"{self.sequence}|{self.did}|{self.content_hash}|{self.previous_hash}"
        return hashlib.sha256(material.encode()).hexdigest()


class VerifiableDataRegistry:
    """Append-only DID document store with revocation support."""

    GENESIS = "0" * 64

    def __init__(self) -> None:
        self._documents: dict[str, list[DidDocument]] = {}
        self._ledger: list[RegistryEntry] = []
        self._revoked: dict[str, str] = {}  # credential id -> revoking DID
        # (did, version count, message, signature) -> verdict
        self._verdicts: dict[tuple[str, int, bytes, bytes], bool] = {}

    # -- DID documents -------------------------------------------------------

    def register(self, document: DidDocument) -> RegistryEntry:
        """Append a (new version of a) DID document."""
        key = str(document.did)
        previous = self._ledger[-1].entry_hash() if self._ledger else self.GENESIS
        entry = RegistryEntry(
            sequence=len(self._ledger),
            did=key,
            content_hash=document.content_hash(),
            previous_hash=previous,
        )
        self._ledger.append(entry)
        self._documents.setdefault(key, []).append(document)
        return entry

    def resolve(self, did: Did | str) -> DidDocument:
        """Latest document for ``did``; raises KeyError when unknown."""
        versions = self._documents.get(str(did))
        if not versions:
            raise KeyError(f"unresolvable DID {did}")
        return versions[-1]

    def verify_signed(self, did: Did | str, message: bytes, signature: bytes) -> bool:
        """``resolve(did).verify(message, signature)``, checked once per
        document version; raises KeyError when ``did`` is unknown."""
        key = str(did)
        versions = self._documents.get(key)
        if not versions:
            raise KeyError(f"unresolvable DID {did}")
        entry = (key, len(versions), message, signature)
        verdict = self._verdicts.get(entry)
        if verdict is None:
            verdict = versions[-1].verify(message, signature)
            if len(self._verdicts) >= VERDICT_CACHE_SIZE:
                self._verdicts.clear()
            self._verdicts[entry] = verdict
        return verdict

    def history(self, did: Did | str) -> list[DidDocument]:
        return list(self._documents.get(str(did), []))

    def verify_chain(self) -> bool:
        """Check the ledger hash chain end to end."""
        previous = self.GENESIS
        for index, entry in enumerate(self._ledger):
            if entry.sequence != index or entry.previous_hash != previous:
                return False
            previous = entry.entry_hash()
        return True

    def __len__(self) -> int:
        return len(self._ledger)

    # -- revocation ----------------------------------------------------------

    def revoke_credential(self, credential_id: str, revoker: Did | str) -> None:
        if credential_id in self._revoked:
            raise ValueError(f"credential {credential_id!r} already revoked")
        self._revoked[credential_id] = str(revoker)

    def is_revoked(self, credential_id: str) -> bool:
        return credential_id in self._revoked


class RegistryUnavailable(Exception):
    """The registry cannot be reached (transient infrastructure failure).

    Distinct from ``KeyError`` (the DID genuinely does not exist):
    resilience machinery may retry or fall back to a cached document on
    unavailability, but must *not* paper over a missing DID.
    """


class CachingResolver:
    """DID resolution with a last-known-good cache for registry outages.

    The paper's SSI design assumes the verifiable data registry is
    "publicly available" — but availability is exactly what a fault
    campaign takes away.  This resolver keeps the latest successfully
    resolved document per DID and serves it *stale* while the registry
    is down, trading freshness (a rotated key or new endpoint would be
    missed) for availability, the same trade the offline-verification
    path in :mod:`repro.ssi.charging` makes deliberately.

    Args:
        registry: the backing registry.
        unavailable: optional predicate consulted per lookup; returning
            ``True`` models the registry being unreachable right now
            (chaos campaigns wire this to the fault injector).
    """

    def __init__(self, registry: VerifiableDataRegistry, *,
                 unavailable: Callable[[], bool] | None = None) -> None:
        self.registry = registry
        self.unavailable = unavailable
        self.hits = 0
        self.stale_hits = 0
        self.failures = 0
        self._cache: dict[str, DidDocument] = {}

    def resolve(self, did: Did | str) -> DidDocument:
        """Resolve ``did``, serving the cached document during outages.

        Raises :class:`RegistryUnavailable` when the registry is down
        and no cached copy exists; propagates ``KeyError`` for unknown
        DIDs while the registry is reachable.
        """
        key = str(did)
        if self.unavailable is not None and self.unavailable():
            cached = self._cache.get(key)
            if cached is not None:
                self.stale_hits += 1
                return cached
            self.failures += 1
            raise RegistryUnavailable(
                f"registry down and no cached document for {key}")
        document = self.registry.resolve(did)
        self._cache[key] = document
        self.hits += 1
        return document

    def to_dict(self) -> dict:
        return {"hits": self.hits, "staleHits": self.stale_hits,
                "failures": self.failures, "cached": len(self._cache)}
