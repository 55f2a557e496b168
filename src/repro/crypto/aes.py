"""AES block cipher (FIPS 197) on the ``cryptography`` library.

This module provides the raw 128-bit block transform for AES-128, AES-192,
and AES-256; the cipher modes built on top of it (CTR, CMAC, GCM) live in
:mod:`repro.crypto.modes`.

An :class:`AES` object installs its key once: it builds one OpenSSL ECB
encryption context when it is created, and every block it encrypts reuses
that context.  The decryption context is built on the first decrypt, since
nothing in the simulators decrypts single blocks.

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

    def encrypt_blocks(self, blocks: bytes) -> bytes:
        """Encrypt a whole number of 16-byte blocks, each on its own (ECB)."""
        if len(blocks) % 16:
            raise ValueError("AES input must be a whole number of 16-byte blocks")
        return self._encryptor.update(blocks)

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt a single 16-byte block."""
        if len(block) != 16:
            raise ValueError("AES block must be exactly 16 bytes")
        if self._decryptor is None:
            self._decryptor = self._ecb.decryptor()
        return self._decryptor.update(block)
