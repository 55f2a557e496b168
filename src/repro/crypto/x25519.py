"""X25519 Diffie-Hellman key agreement (RFC 7748) on the ``cryptography`` library.

Used by the MACsec Key Agreement model (:mod:`repro.ivn.macsec`) and the
SSI layer for establishing pairwise session keys between vehicle
components — the "(session) key storage" question that distinguishes
scenarios S1/S2/S3 in the paper's §III-A.

Pinned to the RFC 7748 §5.2 and §6.1 test vectors and to the Montgomery
ladder kept in ``tests/crypto_reference/x25519.py``.
"""

from __future__ import annotations

from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey, X25519PublicKey

__all__ = ["x25519", "x25519_base", "BASE_POINT"]

BASE_POINT = (9).to_bytes(32, "little")


def _private_key(scalar: bytes) -> X25519PrivateKey:
    if len(scalar) != 32:
        raise ValueError("X25519 scalar must be 32 bytes")
    return X25519PrivateKey.from_private_bytes(scalar)


def x25519(scalar: bytes, u_coord: bytes) -> bytes:
    """Scalar multiplication on Curve25519: returns scalar * point(u).

    A small-order ``u`` gives the all-zero output, as RFC 7748 §5 computes
    it; the library refuses that result, so it is returned here instead.
    """
    private = _private_key(scalar)
    if len(u_coord) != 32:
        raise ValueError("X25519 u-coordinate must be 32 bytes")
    try:
        return private.exchange(X25519PublicKey.from_public_bytes(u_coord))
    except ValueError:
        return bytes(32)


def x25519_base(scalar: bytes) -> bytes:
    """Compute the public key for ``scalar`` (scalar * base point)."""
    return _private_key(scalar).public_key().public_bytes_raw()
