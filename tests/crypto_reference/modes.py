"""AES cipher modes: CTR keystream, CMAC (RFC 4493), and GCM (SP 800-38D).

These provide the building blocks used throughout the in-vehicle-network
security protocols:

* **CTR** — keystream generation, also the DRBG behind HRP-UWB scrambled
  timestamp sequences (:mod:`repro.phy.hrp`).
* **CMAC** — the MAC underlying AUTOSAR SECOC and CiA 613-2 CANsec.
* **GCM** — the AEAD mandated by IEEE 802.1AE MACsec (GCM-AES-128/256).

All algorithms are validated against published test vectors in the test
suite (RFC 4493 appendix, NIST GCM test cases).
"""

from __future__ import annotations

from hmac import compare_digest

from tests.crypto_reference.aes import AES, xor_bytes

__all__ = ["ctr_keystream", "ctr_xcrypt", "Cmac", "cmac", "Gcm", "AuthenticationError"]


class AuthenticationError(Exception):
    """Raised when an AEAD tag or MAC fails verification."""


def _inc32(block: bytes) -> bytes:
    """Increment the rightmost 32 bits of a 16-byte block (GCM counter)."""
    prefix, ctr = block[:12], int.from_bytes(block[12:], "big")
    return prefix + ((ctr + 1) & 0xFFFFFFFF).to_bytes(4, "big")


def _keystream(cipher: AES, initial_counter: bytes, length: int) -> bytes:
    """``length`` bytes of CTR keystream from whole blocks of ``cipher``."""
    encrypt = cipher.encrypt_block
    prefix, ctr = initial_counter[:12], int.from_bytes(initial_counter[12:], "big")
    blocks = [encrypt(prefix + ((ctr + i) & 0xFFFFFFFF).to_bytes(4, "big"))
              for i in range((length + 15) // 16)]
    return b"".join(blocks)[:length]


def ctr_keystream(key: bytes, initial_counter: bytes, length: int) -> bytes:
    """Generate ``length`` bytes of AES-CTR keystream.

    ``initial_counter`` is a full 16-byte counter block; the rightmost 32
    bits are incremented per block (GCM-style), which is adequate for all
    message sizes used in this project.
    """
    if len(initial_counter) != 16:
        raise ValueError("initial counter must be 16 bytes")
    return _keystream(AES(key), initial_counter, length)


def ctr_xcrypt(key: bytes, initial_counter: bytes, data: bytes) -> bytes:
    """Encrypt or decrypt ``data`` with AES-CTR (the operation is symmetric)."""
    return xor_bytes(data, ctr_keystream(key, initial_counter, len(data)))


def _left_shift_one(block: bytes) -> bytes:
    value = int.from_bytes(block, "big")
    return ((value << 1) & ((1 << 128) - 1)).to_bytes(16, "big")


class Cmac:
    """AES-CMAC per RFC 4493, with support for truncated tags.

    Truncation matters for the reproduction: SECOC and CANsec transmit
    truncated MACs to save bus bandwidth, trading forgery resistance for
    goodput (ablation ABL-2 in DESIGN.md).
    """

    def __init__(self, key: bytes) -> None:
        self._cipher = AES(key)
        zero = self._cipher.encrypt_block(b"\x00" * 16)
        k1 = _left_shift_one(zero)
        if zero[0] & 0x80:
            k1 = xor_bytes(k1, b"\x00" * 15 + b"\x87")
        k2 = _left_shift_one(k1)
        if k1[0] & 0x80:
            k2 = xor_bytes(k2, b"\x00" * 15 + b"\x87")
        self._k1 = k1
        self._k2 = k2

    def tag(self, message: bytes, tag_bits: int = 128) -> bytes:
        """Compute the CMAC over ``message`` truncated to ``tag_bits`` bits.

        ``tag_bits`` must be a positive multiple of 8, at most 128. The tag
        keeps the most significant (leftmost) bytes, per RFC 4493 §2.4 and
        AUTOSAR SECOC truncation rules.
        """
        if tag_bits <= 0 or tag_bits > 128 or tag_bits % 8:
            raise ValueError("tag_bits must be a multiple of 8 in (0, 128]")
        n_blocks = max(1, (len(message) + 15) // 16)
        complete = len(message) % 16 == 0 and len(message) > 0
        if complete:
            last = xor_bytes(message[-16:], self._k1)
        else:
            tail = message[16 * (n_blocks - 1) :]
            padded = tail + b"\x80" + b"\x00" * (15 - len(tail))
            last = xor_bytes(padded, self._k2)
        state = b"\x00" * 16
        for i in range(n_blocks - 1):
            state = self._cipher.encrypt_block(xor_bytes(state, message[16 * i : 16 * i + 16]))
        full = self._cipher.encrypt_block(xor_bytes(state, last))
        return full[: tag_bits // 8]

    def verify(self, message: bytes, tag: bytes) -> bool:
        """Check a (possibly truncated) tag; any length outside 1..16 is false."""
        if not 1 <= len(tag) <= 16:
            return False
        return compare_digest(self.tag(message, tag_bits=len(tag) * 8), tag)


def cmac(key: bytes, message: bytes, tag_bits: int = 128) -> bytes:
    """One-shot AES-CMAC."""
    return Cmac(key).tag(message, tag_bits=tag_bits)


# GHASH works in GF(2^128) with the GCM bit order: bit 127 of the integer
# is the coefficient of x^0, so multiplying by x is a right shift, and a
# coefficient shifted out past x^127 folds back in as x^128 = x^7+x^2+x+1.
_GHASH_R = 0xE1 << 120


def _nibble_table(v8: int, v4: int, v2: int, v1: int) -> list[int]:
    """XOR of the values picked by each nibble's set bits (8, 4, 2, 1)."""
    return [(v8 if n & 8 else 0) ^ (v4 if n & 4 else 0) ^ (v2 if n & 2 else 0)
            ^ (v1 if n & 1 else 0) for n in range(16)]


#: ``_GHASH_RED[n]``: the reduction of the four coefficients a right shift
#: by 4 pushes out of the low nibble ``n`` (x^124..x^127 times x^4).
_GHASH_RED = _nibble_table(_GHASH_R, _GHASH_R >> 1, _GHASH_R >> 2, _GHASH_R >> 3)

#: Tag lengths in bytes that NIST SP 800-38D §5.2.1.2 allows.
_GCM_TAG_LENGTHS = frozenset({4, 8, 12, 13, 14, 15, 16})


class Gcm:
    """AES-GCM authenticated encryption (NIST SP 800-38D).

    Supports the 96-bit IV fast path and arbitrary IV lengths via GHASH.
    This is the AEAD used by the MACsec model (:mod:`repro.ivn.macsec`).

    GHASH uses Shoup's 4-bit tables: per key, the sixteen products of
    ``H`` with every 4-bit polynomial, so one block costs 32 table steps
    instead of 128 bit steps.
    """

    def __init__(self, key: bytes) -> None:
        self._cipher = AES(key)
        h = int.from_bytes(self._cipher.encrypt_block(b"\x00" * 16), "big")
        # _m[n] = n·H, where nibble n holds the coefficients of x^0..x^3
        # (its bit 3 is x^0): _m[8] = H, _m[4] = H·x, _m[2] = H·x², _m[1] = H·x³.
        powers = [h]
        for _ in range(3):
            h = (h >> 1) ^ _GHASH_R if h & 1 else h >> 1
            powers.append(h)
        self._m = _nibble_table(*powers)

    def _ghash(self, data: bytes) -> int:
        """GHASH over ``data``, a whole number of 16-byte blocks."""
        m, red = self._m, _GHASH_RED
        y = 0
        for i in range(0, len(data), 16):
            z = 0
            # Horner's rule over the 32 nibbles, from the lowest (x^124..x^127)
            # up: each step multiplies z by x^4 and adds the nibble times H.
            for byte in (y ^ int.from_bytes(data[i : i + 16], "big")).to_bytes(16, "little"):
                z = (z >> 4) ^ red[z & 0xF] ^ m[byte & 0xF]
                z = (z >> 4) ^ red[z & 0xF] ^ m[byte >> 4]
            y = z
        return y

    def _j0(self, iv: bytes) -> bytes:
        if len(iv) == 12:
            return iv + b"\x00\x00\x00\x01"
        pad = (16 - len(iv) % 16) % 16
        y = self._ghash(iv + b"\x00" * (pad + 8) + (8 * len(iv)).to_bytes(8, "big"))
        return y.to_bytes(16, "big")

    def _auth_tag(self, j0: bytes, aad: bytes, ciphertext: bytes, tag_len: int) -> bytes:
        def padded(d: bytes) -> bytes:
            return d + b"\x00" * ((16 - len(d) % 16) % 16)

        s = self._ghash(
            padded(aad)
            + padded(ciphertext)
            + (8 * len(aad)).to_bytes(8, "big")
            + (8 * len(ciphertext)).to_bytes(8, "big")
        )
        mask = int.from_bytes(self._cipher.encrypt_block(j0), "big")
        return (s ^ mask).to_bytes(16, "big")[:tag_len]

    def _xcrypt(self, j0: bytes, data: bytes) -> bytes:
        return xor_bytes(data, _keystream(self._cipher, _inc32(j0), len(data)))

    def encrypt(self, iv: bytes, plaintext: bytes, aad: bytes = b"",
                tag_len: int = 16) -> tuple[bytes, bytes]:
        """Return ``(ciphertext, tag)``; ``tag_len`` is 4, 8 or 12..16 bytes."""
        if tag_len not in _GCM_TAG_LENGTHS:
            raise ValueError(f"GCM tag length must be one of {sorted(_GCM_TAG_LENGTHS)} bytes")
        j0 = self._j0(iv)
        ciphertext = self._xcrypt(j0, plaintext)
        return ciphertext, self._auth_tag(j0, aad, ciphertext, tag_len)

    def decrypt(self, iv: bytes, ciphertext: bytes, tag: bytes, aad: bytes = b"") -> bytes:
        """Verify ``tag`` and return the plaintext; raise on failure.

        A tag of a length SP 800-38D does not allow fails like a wrong one.
        """
        if len(tag) not in _GCM_TAG_LENGTHS:
            raise AuthenticationError("GCM tag verification failed")
        j0 = self._j0(iv)
        if not compare_digest(self._auth_tag(j0, aad, ciphertext, len(tag)), tag):
            raise AuthenticationError("GCM tag verification failed")
        return self._xcrypt(j0, ciphertext)
