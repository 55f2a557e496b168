"""Pure-Python AES block cipher (FIPS 197).

This module provides the raw 128-bit block transform for AES-128, AES-192,
and AES-256, the slow path that :mod:`repro.crypto.aes` is checked against;
the cipher modes built on top of it (CTR, CMAC, GCM) live in
:mod:`tests.crypto_reference.modes`.

The S-box and its inverse are derived programmatically from the GF(2^8)
multiplicative inverse plus the FIPS 197 affine transform, which avoids
transcription errors in a 256-entry table.

Encryption is the classic 32-bit T-table design: the state and the round
keys are four big-endian words, each inner round is sixteen lookups into
four tables that fuse SubBytes, ShiftRows and MixColumns, and the final
round uses the S-box alone.  The tables are built once at import, and the
key schedule works on words.  Decryption keeps the byte-wise inverse
cipher; nothing in the simulators decrypts single blocks.

The FIPS 197 appendix vectors pin :mod:`repro.crypto.aes`, and
``tests/test_crypto_oracle.py`` holds this module equal to it.  The
cipher is **not** constant-time; it is a test oracle, not a production
cipher.
"""

from __future__ import annotations

from struct import Struct

__all__ = ["AES", "xor_bytes"]


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """Return the byte-wise XOR of two equal-length byte strings."""
    if len(a) != len(b):
        raise ValueError(f"xor_bytes length mismatch: {len(a)} != {len(b)}")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


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


def _build_sbox() -> tuple[bytes, bytes]:
    """Construct the AES S-box and inverse S-box from first principles."""
    # Multiplicative inverses via exponentiation tables over generator 3.
    exp = [0] * 256
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x = _gf_mul(x, 3)
    exp[255] = exp[0]

    def inv(a: int) -> int:
        if a == 0:
            return 0
        return exp[255 - log[a]]

    sbox = bytearray(256)
    for a in range(256):
        b = inv(a)
        # Affine transform: b XOR rot(b,1..4) XOR 0x63
        s = b
        for shift in (1, 2, 3, 4):
            s ^= ((b << shift) | (b >> (8 - shift))) & 0xFF
        sbox[a] = s ^ 0x63

    inv_sbox = bytearray(256)
    for a, s in enumerate(sbox):
        inv_sbox[s] = a
    return bytes(sbox), bytes(inv_sbox)


_SBOX, _INV_SBOX = _build_sbox()
_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8, 0xAB, 0x4D]

# Encryption T-tables: _TE0[x] is the MixColumns column of (S(x), 0, 0, 0),
# i.e. the word (2·S(x), S(x), S(x), 3·S(x)); _TE1.._TE3 are its byte
# rotations, one per row of the state.
_TE0 = [(_gf_mul(s, 2) << 24) | (s << 16) | (s << 8) | _gf_mul(s, 3) for s in _SBOX]
_TE1 = [(t >> 8) | ((t & 0xFF) << 24) for t in _TE0]
_TE2 = [(t >> 16) | ((t & 0xFFFF) << 16) for t in _TE0]
_TE3 = [(t >> 24) | ((t & 0xFFFFFF) << 8) for t in _TE0]
# The S-box placed in each byte of a word, for the final round and the
# key schedule.
_S0 = [s << 24 for s in _SBOX]
_S1 = [s << 16 for s in _SBOX]
_S2 = [s << 8 for s in _SBOX]
_S3 = list(_SBOX)

# GF(2^8) multiply-by-constant tables used by InvMixColumns.
_MUL = {c: bytes(_gf_mul(x, c) for x in range(256)) for c in (9, 11, 13, 14)}

_WORDS = Struct(">4I")


class AES:
    """AES block cipher supporting 128-, 192-, and 256-bit keys.

    Usage::

        cipher = AES(b"\\x00" * 16)
        ct = cipher.encrypt_block(b"\\x00" * 16)
        pt = cipher.decrypt_block(ct)
    """

    block_size = 16

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise ValueError(f"AES key must be 16, 24, or 32 bytes, got {len(key)}")
        self.key = bytes(key)
        self._rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._round_keys = self._expand_key(self.key)

    def _expand_key(self, key: bytes) -> list[tuple[int, int, int, int]]:
        """FIPS 197 §5.2 key expansion, one round key per 4-word tuple."""
        nk = len(key) // 4
        w = list(Struct(f">{nk}I").unpack(key))
        s0, s1, s2, s3 = _S0, _S1, _S2, _S3
        for i in range(nk, 4 * (self._rounds + 1)):
            t = w[i - 1]
            if i % nk == 0:
                # SubWord(RotWord(t)) ^ Rcon
                t = (s0[(t >> 16) & 0xFF] | s1[(t >> 8) & 0xFF] | s2[t & 0xFF]
                     | s3[t >> 24]) ^ (_RCON[i // nk - 1] << 24)
            elif nk > 6 and i % nk == 4:
                t = s0[t >> 24] | s1[(t >> 16) & 0xFF] | s2[(t >> 8) & 0xFF] | s3[t & 0xFF]
            w.append(w[i - nk] ^ t)
        return [(w[i], w[i + 1], w[i + 2], w[i + 3]) for i in range(0, len(w), 4)]

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt a single 16-byte block."""
        if len(block) != 16:
            raise ValueError("AES block must be exactly 16 bytes")
        rk = self._round_keys
        t0, t1, t2, t3 = _TE0, _TE1, _TE2, _TE3
        a0, a1, a2, a3 = _WORDS.unpack(block)
        k0, k1, k2, k3 = rk[0]
        a0 ^= k0
        a1 ^= k1
        a2 ^= k2
        a3 ^= k3
        for k0, k1, k2, k3 in rk[1:-1]:
            a0, a1, a2, a3 = (
                t0[a0 >> 24] ^ t1[(a1 >> 16) & 0xFF] ^ t2[(a2 >> 8) & 0xFF] ^ t3[a3 & 0xFF] ^ k0,
                t0[a1 >> 24] ^ t1[(a2 >> 16) & 0xFF] ^ t2[(a3 >> 8) & 0xFF] ^ t3[a0 & 0xFF] ^ k1,
                t0[a2 >> 24] ^ t1[(a3 >> 16) & 0xFF] ^ t2[(a0 >> 8) & 0xFF] ^ t3[a1 & 0xFF] ^ k2,
                t0[a3 >> 24] ^ t1[(a0 >> 16) & 0xFF] ^ t2[(a1 >> 8) & 0xFF] ^ t3[a2 & 0xFF] ^ k3,
            )
        s0, s1, s2, s3 = _S0, _S1, _S2, _S3
        k0, k1, k2, k3 = rk[-1]
        return _WORDS.pack(
            s0[a0 >> 24] ^ s1[(a1 >> 16) & 0xFF] ^ s2[(a2 >> 8) & 0xFF] ^ s3[a3 & 0xFF] ^ k0,
            s0[a1 >> 24] ^ s1[(a2 >> 16) & 0xFF] ^ s2[(a3 >> 8) & 0xFF] ^ s3[a0 & 0xFF] ^ k1,
            s0[a2 >> 24] ^ s1[(a3 >> 16) & 0xFF] ^ s2[(a0 >> 8) & 0xFF] ^ s3[a1 & 0xFF] ^ k2,
            s0[a3 >> 24] ^ s1[(a0 >> 16) & 0xFF] ^ s2[(a1 >> 8) & 0xFF] ^ s3[a2 & 0xFF] ^ k3,
        )

    # The byte-wise inverse cipher works on a flat 16-element state in
    # column-major order, matching the byte order of the input block
    # (FIPS 197 s[r][c] = in[r + 4c]).

    @staticmethod
    def _inv_shift_rows(s: list[int]) -> list[int]:
        return [
            s[0], s[13], s[10], s[7],
            s[4], s[1], s[14], s[11],
            s[8], s[5], s[2], s[15],
            s[12], s[9], s[6], s[3],
        ]

    @staticmethod
    def _inv_mix_columns(s: list[int]) -> list[int]:
        m9, m11, m13, m14 = _MUL[9], _MUL[11], _MUL[13], _MUL[14]
        out = [0] * 16
        for c in range(0, 16, 4):
            a0, a1, a2, a3 = s[c], s[c + 1], s[c + 2], s[c + 3]
            out[c] = m14[a0] ^ m11[a1] ^ m13[a2] ^ m9[a3]
            out[c + 1] = m9[a0] ^ m14[a1] ^ m11[a2] ^ m13[a3]
            out[c + 2] = m13[a0] ^ m9[a1] ^ m14[a2] ^ m11[a3]
            out[c + 3] = m11[a0] ^ m13[a1] ^ m9[a2] ^ m14[a3]
        return out

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt a single 16-byte block."""
        if len(block) != 16:
            raise ValueError("AES block must be exactly 16 bytes")
        rk = [_WORDS.pack(*words) for words in self._round_keys]
        s = [b ^ k for b, k in zip(block, rk[self._rounds])]
        for rnd in range(self._rounds - 1, 0, -1):
            s = self._inv_shift_rows(s)
            s = [_INV_SBOX[b] for b in s]
            s = [b ^ k for b, k in zip(s, rk[rnd])]
            s = self._inv_mix_columns(s)
        s = self._inv_shift_rows(s)
        s = [_INV_SBOX[b] for b in s]
        s = [b ^ k for b, k in zip(s, rk[0])]
        return bytes(s)
