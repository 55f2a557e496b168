"""AES block cipher (FIPS 197) on the ``cryptography`` library.

This module provides the raw 128-bit block transform for AES-128, AES-192,
and AES-256, and the CTR keystream on top of it; the other cipher modes
(CMAC, GCM) live in :mod:`repro.crypto.modes`.

An :class:`AES` object installs its key once: it builds one OpenSSL ECB
encryption context when it is created, and every block it encrypts reuses
that context.  The decryption context is built on the first decrypt, since
nothing in the simulators decrypts single blocks.  A caller that draws
many keystreams under one key (an MTAC code, a ranging session) holds one
:class:`AES` and calls :meth:`AES.ctr_keystream`, instead of keying a new
cipher per message.

Correctness is pinned to the FIPS 197 appendix vectors, and
``tests/test_crypto_oracle.py`` checks the cipher against the pure-Python
T-table implementation kept in ``tests/crypto_reference/aes.py``.
"""

from __future__ import annotations

from cryptography.hazmat.primitives.ciphers import Cipher, CipherContext, algorithms, modes

__all__ = ["AES", "xor_bytes"]


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """Return the byte-wise XOR of two equal-length byte strings."""
    if len(a) != len(b):
        raise ValueError(f"xor_bytes length mismatch: {len(a)} != {len(b)}")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def aes_key(key: bytes) -> bytes:
    """``key`` as bytes, after checking it is an AES-128/192/256 key."""
    if len(key) not in (16, 24, 32):
        raise ValueError(f"AES key must be 16, 24, or 32 bytes, got {len(key)}")
    return bytes(key)


class AES:
    """AES block cipher supporting 128-, 192-, and 256-bit keys.

    Usage::

        cipher = AES(b"\\x00" * 16)
        ct = cipher.encrypt_block(b"\\x00" * 16)
        pt = cipher.decrypt_block(ct)

    Library contexts cannot be pickled, so a pickled or deep-copied
    cipher is rebuilt from its key.
    """

    block_size = 16

    def __init__(self, key: bytes) -> None:
        self.key = aes_key(key)
        self._ecb = Cipher(algorithms.AES(self.key), modes.ECB())
        self._encryptor = self._ecb.encryptor()
        self._decryptor: CipherContext | None = None

    def __reduce__(self) -> tuple[type[AES], tuple[bytes]]:
        return (type(self), (self.key,))

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt a single 16-byte block."""
        if len(block) != 16:
            raise ValueError("AES block must be exactly 16 bytes")
        return self._encryptor.update(block)

    def ctr_keystream(self, initial_counter: bytes, length: int) -> bytes:
        """Generate ``length`` bytes of AES-CTR keystream under this key.

        ``initial_counter`` is a full 16-byte counter block; only its
        rightmost 32 bits are incremented per block, wrapping modulo
        2**32 (GCM's ``inc32``).  The library's CTR mode carries into all
        128 bits instead, so the counter blocks are built here and
        encrypted in one ECB call.
        """
        if len(initial_counter) != 16:
            raise ValueError("initial counter must be 16 bytes")
        prefix, ctr = initial_counter[:12], int.from_bytes(initial_counter[12:], "big")
        counters = b"".join(prefix + ((ctr + i) & 0xFFFFFFFF).to_bytes(4, "big")
                            for i in range((length + 15) // 16))
        return self._encryptor.update(counters)[:length]

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt a single 16-byte block."""
        if len(block) != 16:
            raise ValueError("AES block must be exactly 16 bytes")
        if self._decryptor is None:
            self._decryptor = self._ecb.decryptor()
        return self._decryptor.update(block)
