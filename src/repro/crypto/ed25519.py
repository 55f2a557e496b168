"""Ed25519 signatures (RFC 8032) on the ``cryptography`` library.

This is the signature scheme behind the self-sovereign-identity layer
(:mod:`repro.ssi`): DID authentication keys, verifiable-credential proofs,
and software-component attestations all sign with Ed25519, mirroring the
did:web / W3C VC ecosystem the paper references in §IV.

Keys are 32-byte seeds and raw 32-byte public keys, as in RFC 8032.  The
library decodes some public keys that RFC 8032 §5.1.3 rejects, so
:func:`verify` turns those away before calling it (see
:func:`_is_canonical`).  Pinned to the RFC's test vectors and to the
pure-Python implementation kept in ``tests/crypto_reference/ed25519.py``.

Decoding a key is not free: building the private-key object derives the
public key, which costs about as much as a signature.  The module keeps
each key object it builds, keyed by the 32 key bytes, in one dict per
kind; a dict that reaches :data:`KEY_CACHE_SIZE` entries is emptied
before the next one goes in.  Signing and verifying still go through
:func:`sign` and :func:`verify` every time; only the decode is shared.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey, Ed25519PublicKey

__all__ = ["generate_public_key", "sign", "verify", "SignatureError"]

_P = 2**255 - 19
_L = 2**252 + 27742317777372353535851937790883648493

#: Key objects kept per kind (private, public) before the cache is emptied.
KEY_CACHE_SIZE = 256

_K = TypeVar("_K")
_private_keys: dict[bytes, Ed25519PrivateKey] = {}
_public_keys: dict[bytes, Ed25519PublicKey] = {}


class SignatureError(Exception):
    """Signature failure, for callers that raise one; :func:`verify`
    itself returns False rather than raising."""


def _is_canonical(point: bytes) -> bool:
    """True iff ``point`` is an encoding RFC 8032 §5.1.3 decodes.

    OpenSSL reduces a y of p or more modulo p, and takes x = 0 (y = ±1)
    with the sign bit set as x = 0.  RFC 8032 rejects both encodings.
    """
    value = int.from_bytes(point, "little")
    y = value & ((1 << 255) - 1)
    return y < _P and not (value >> 255 and y * y % _P == 1)


def _decoded(cache: dict[bytes, _K], raw: bytes, decode: Callable[[bytes], _K]) -> _K:
    key = cache.get(raw)
    if key is None:
        key = decode(raw)
        if len(cache) >= KEY_CACHE_SIZE:
            cache.clear()
        cache[raw] = key
    return key


def _private_key(secret: bytes) -> Ed25519PrivateKey:
    if len(secret) != 32:
        raise ValueError("Ed25519 secret seed must be 32 bytes")
    return _decoded(_private_keys, bytes(secret), Ed25519PrivateKey.from_private_bytes)


def generate_public_key(secret: bytes) -> bytes:
    """Derive the 32-byte public key from a 32-byte secret seed."""
    return _private_key(secret).public_key().public_bytes_raw()


def sign(secret: bytes, message: bytes) -> bytes:
    """Produce a 64-byte Ed25519 signature over ``message``."""
    return _private_key(secret).sign(message)


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """Return True iff ``signature`` is a valid signature of ``message``."""
    if len(public) != 32 or len(signature) != 64:
        return False
    if not _is_canonical(public) or int.from_bytes(signature[32:], "little") >= _L:
        return False
    try:
        _decoded(_public_keys, bytes(public),
                 Ed25519PublicKey.from_public_bytes).verify(signature, message)
    except (InvalidSignature, ValueError):
        return False
    return True
