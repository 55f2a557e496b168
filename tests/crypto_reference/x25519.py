"""X25519 Diffie-Hellman key agreement (RFC 7748) in pure Python.

Used by the MACsec Key Agreement model (:mod:`repro.ivn.macsec`) and the
SSI layer for establishing pairwise session keys between vehicle
components — the "(session) key storage" question that distinguishes
scenarios S1/S2/S3 in the paper's §III-A.

Pinned to the RFC 7748 §5.2 and §6.1 test vectors in the test suite.
"""

from __future__ import annotations

__all__ = ["x25519", "x25519_base", "BASE_POINT"]

_P = 2**255 - 19
_A24 = 121665

BASE_POINT = (9).to_bytes(32, "little")


def _decode_scalar(k: bytes) -> int:
    if len(k) != 32:
        raise ValueError("X25519 scalar must be 32 bytes")
    a = bytearray(k)
    a[0] &= 248
    a[31] &= 127
    a[31] |= 64
    return int.from_bytes(bytes(a), "little")


def _decode_u(u: bytes) -> int:
    if len(u) != 32:
        raise ValueError("X25519 u-coordinate must be 32 bytes")
    value = int.from_bytes(u, "little")
    return (value & ((1 << 255) - 1)) % _P


def x25519(scalar: bytes, u_coord: bytes) -> bytes:
    """Montgomery-ladder scalar multiplication: returns scalar * point(u)."""
    k = _decode_scalar(scalar)
    u = _decode_u(u_coord)

    x1 = u
    x2, z2 = 1, 0
    x3, z3 = u, 1
    swap = 0
    for t in range(254, -1, -1):
        k_t = (k >> t) & 1
        if swap ^ k_t:
            x2, x3 = x3, x2
            z2, z3 = z3, z2
        swap = k_t

        a = (x2 + z2) % _P
        aa = a * a % _P
        b = (x2 - z2) % _P
        bb = b * b % _P
        e = (aa - bb) % _P
        c = (x3 + z3) % _P
        d = (x3 - z3) % _P
        da = d * a % _P
        cb = c * b % _P
        x3 = (da + cb) % _P
        x3 = x3 * x3 % _P
        z3 = (da - cb) % _P
        z3 = x1 * z3 * z3 % _P
        x2 = aa * bb % _P
        z2 = e * (aa + _A24 * e) % _P

    if swap:
        x2, x3 = x3, x2
        z2, z3 = z3, z2
    result = x2 * pow(z2, _P - 2, _P) % _P
    return result.to_bytes(32, "little")


def x25519_base(scalar: bytes) -> bytes:
    """Compute the public key for ``scalar`` (scalar * base point)."""
    return x25519(scalar, BASE_POINT)
