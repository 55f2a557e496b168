"""Shamir secret sharing over GF(256).

Substrate for the owner-controlled data-access layer
(:mod:`repro.datalayer.access`), modeled after the paper's reference
[54] (SeEMQTT): a data owner splits a content key into shares held by
independent *key trustees*, and a consumer must convince a threshold of
trustees to reconstruct it — no single trustee can leak the data.

The field is GF(2^8) with the AES polynomial (x^8+x^4+x^3+x+1); secrets
of any byte length are shared byte-wise with a common x-coordinate per
share.
"""

from __future__ import annotations

from repro.core.rng import python_rng

__all__ = ["split_secret", "reconstruct_secret", "Share"]

Share = tuple[int, bytes]  # (x coordinate, share bytes)


def _gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8) modulo the AES polynomial x^8+x^4+x^3+x+1."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
        b >>= 1
    return result


def _gf_pow(a: int, n: int) -> int:
    result = 1
    while n:
        if n & 1:
            result = _gf_mul(result, a)
        a = _gf_mul(a, a)
        n >>= 1
    return result


def _gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("no inverse of 0 in GF(256)")
    return _gf_pow(a, 254)


def split_secret(secret: bytes, *, threshold: int, n_shares: int,
                 seed_label: str = "shamir") -> list[Share]:
    """Split ``secret`` into ``n_shares`` shares, any ``threshold`` of
    which reconstruct it.

    Returns ``[(x, share_bytes), ...]`` with distinct non-zero x.
    """
    if not secret:
        raise ValueError("cannot share an empty secret")
    if not 1 <= threshold <= n_shares <= 255:
        raise ValueError("need 1 <= threshold <= n_shares <= 255")
    rng = python_rng(seed_label)
    # One random polynomial of degree threshold-1 per secret byte;
    # coefficient arrays indexed [byte][degree].
    coefficients = [
        [byte] + [rng.randrange(256) for _ in range(threshold - 1)]
        for byte in secret
    ]
    shares: list[Share] = []
    for x in range(1, n_shares + 1):
        share = bytearray()
        for poly in coefficients:
            accumulator = 0
            for degree, coefficient in enumerate(poly):
                accumulator ^= _gf_mul(coefficient, _gf_pow(x, degree))
            share.append(accumulator)
        shares.append((x, bytes(share)))
    return shares


def reconstruct_secret(shares: list[Share]) -> bytes:
    """Lagrange interpolation at x=0 over the provided shares.

    With at least ``threshold`` genuine shares this returns the secret;
    with fewer (or corrupted) shares it returns garbage — information-
    theoretically indistinguishable from random, which the tests verify
    behaviourally.
    """
    if not shares:
        raise ValueError("need at least one share")
    xs = [x for x, _ in shares]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate share x-coordinates")
    if any(x == 0 or not 0 < x < 256 for x in xs):
        raise ValueError("share x-coordinates must be in 1..255")
    length = len(shares[0][1])
    if any(len(data) != length for _, data in shares):
        raise ValueError("shares must have equal length")

    secret = bytearray(length)
    for byte_index in range(length):
        accumulator = 0
        for i, (xi, data) in enumerate(shares):
            # Lagrange basis at 0: prod_{j != i} xj / (xj - xi);
            # subtraction is XOR in GF(2^8).
            numerator, denominator = 1, 1
            for j, (xj, _) in enumerate(shares):
                if i == j:
                    continue
                numerator = _gf_mul(numerator, xj)
                denominator = _gf_mul(denominator, xi ^ xj)
            weight = _gf_mul(numerator, _gf_inv(denominator))
            accumulator ^= _gf_mul(data[byte_index], weight)
        secret[byte_index] = accumulator
    return bytes(secret)
