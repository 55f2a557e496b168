"""Ed25519 signatures (RFC 8032) in pure Python.

This is the signature scheme behind the self-sovereign-identity layer
(:mod:`repro.ssi`): DID authentication keys, verifiable-credential proofs,
and software-component attestations all sign with Ed25519, mirroring the
did:web / W3C VC ecosystem the paper references in §IV.

The implementation follows the RFC 8032 reference structure (twisted
Edwards curve edwards25519, SHA-512) and is pinned to the RFC's test
vectors in the test suite.  Not constant-time; simulation substrate only.
"""

from __future__ import annotations

import hashlib

__all__ = ["generate_public_key", "sign", "verify", "SignatureError"]

_P = 2**255 - 19
_L = 2**252 + 27742317777372353535851937790883648493
_D = (-121665 * pow(121666, _P - 2, _P)) % _P
_I = pow(2, (_P - 1) // 4, _P)


class SignatureError(Exception):
    """Raised when a signature fails to verify or decode."""


def _sha512(data: bytes) -> bytes:
    return hashlib.sha512(data).digest()


def _inv(x: int) -> int:
    return pow(x, _P - 2, _P)


# Points are extended homogeneous coordinates (X, Y, Z, T) with x=X/Z, y=Y/Z,
# x*y=T/Z.
_Point = tuple[int, int, int, int]


def _edwards_add(p: _Point, q: _Point) -> _Point:
    x1, y1, z1, t1 = p
    x2, y2, z2, t2 = q
    a = (y1 - x1) * (y2 - x2) % _P
    b = (y1 + x1) * (y2 + x2) % _P
    c = 2 * t1 * t2 * _D % _P
    d = 2 * z1 * z2 % _P
    e, f, g, h = b - a, d - c, d + c, b + a
    return (e * f % _P, g * h % _P, f * g % _P, e * h % _P)


def _edwards_double(p: _Point) -> _Point:
    x1, y1, z1, _ = p
    a = x1 * x1 % _P
    b = y1 * y1 % _P
    c = 2 * z1 * z1 % _P
    h = (a + b) % _P
    e = (h - (x1 + y1) * (x1 + y1)) % _P
    g = (a - b) % _P
    f = (c + g) % _P
    return (e * f % _P, g * h % _P, f * g % _P, e * h % _P)


def _scalar_mult(p: _Point, s: int) -> _Point:
    q: _Point = (0, 1, 1, 0)  # neutral element
    while s > 0:
        if s & 1:
            q = _edwards_add(q, p)
        p = _edwards_double(p)
        s >>= 1
    return q


def _recover_x(y: int, sign: int) -> int:
    if y >= _P:
        raise SignatureError("point decode: y out of range")
    x2 = (y * y - 1) * _inv(_D * y * y + 1) % _P
    if x2 == 0:
        if sign:
            raise SignatureError("point decode: invalid sign for x=0")
        return 0
    x = pow(x2, (_P + 3) // 8, _P)
    if (x * x - x2) % _P:
        x = x * _I % _P
    if (x * x - x2) % _P:
        raise SignatureError("point decode: not on curve")
    if x & 1 != sign:
        x = _P - x
    return x


_BY = 4 * _inv(5) % _P
_BX = _recover_x(_BY, 0)
_B: _Point = (_BX, _BY, 1, _BX * _BY % _P)


def _compress(p: _Point) -> bytes:
    x, y, z, _ = p
    zinv = _inv(z)
    x, y = x * zinv % _P, y * zinv % _P
    return (y | ((x & 1) << 255)).to_bytes(32, "little")


def _decompress(data: bytes) -> _Point:
    if len(data) != 32:
        raise SignatureError("point must be 32 bytes")
    value = int.from_bytes(data, "little")
    sign = value >> 255
    y = value & ((1 << 255) - 1)
    x = _recover_x(y, sign)
    return (x, y, 1, x * y % _P)


def _clamp(scalar_bytes: bytes) -> int:
    a = int.from_bytes(scalar_bytes, "little")
    a &= (1 << 254) - 8
    a |= 1 << 254
    return a


def generate_public_key(secret: bytes) -> bytes:
    """Derive the 32-byte public key from a 32-byte secret seed."""
    if len(secret) != 32:
        raise ValueError("Ed25519 secret seed must be 32 bytes")
    h = _sha512(secret)
    a = _clamp(h[:32])
    return _compress(_scalar_mult(_B, a))


def sign(secret: bytes, message: bytes) -> bytes:
    """Produce a 64-byte Ed25519 signature over ``message``."""
    if len(secret) != 32:
        raise ValueError("Ed25519 secret seed must be 32 bytes")
    h = _sha512(secret)
    a = _clamp(h[:32])
    prefix = h[32:]
    public = _compress(_scalar_mult(_B, a))
    r = int.from_bytes(_sha512(prefix + message), "little") % _L
    r_point = _compress(_scalar_mult(_B, r))
    k = int.from_bytes(_sha512(r_point + public + message), "little") % _L
    s = (r + k * a) % _L
    return r_point + s.to_bytes(32, "little")


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """Return True iff ``signature`` is a valid signature of ``message``."""
    if len(public) != 32 or len(signature) != 64:
        return False
    try:
        a_point = _decompress(public)
        r_point = _decompress(signature[:32])
    except SignatureError:
        return False
    s = int.from_bytes(signature[32:], "little")
    if s >= _L:
        return False
    k = int.from_bytes(_sha512(signature[:32] + public + message), "little") % _L
    lhs = _scalar_mult(_B, s)
    rhs = _edwards_add(r_point, _scalar_mult(a_point, k))
    # Compare projectively: X1*Z2 == X2*Z1 and Y1*Z2 == Y2*Z1.
    x1, y1, z1, _ = lhs
    x2, y2, z2, _ = rhs
    return (x1 * z2 - x2 * z1) % _P == 0 and (y1 * z2 - y2 * z1) % _P == 0
