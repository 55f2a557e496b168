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
"""

from __future__ import annotations

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey, Ed25519PublicKey

__all__ = ["generate_public_key", "sign", "verify", "SignatureError"]

_P = 2**255 - 19
_L = 2**252 + 27742317777372353535851937790883648493


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


def _private_key(secret: bytes) -> Ed25519PrivateKey:
    if len(secret) != 32:
        raise ValueError("Ed25519 secret seed must be 32 bytes")
    return Ed25519PrivateKey.from_private_bytes(secret)


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
        Ed25519PublicKey.from_public_bytes(public).verify(signature, message)
    except (InvalidSignature, ValueError):
        return False
    return True
