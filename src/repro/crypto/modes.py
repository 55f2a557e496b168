"""AES cipher modes: CTR keystream, CMAC (RFC 4493), and GCM (SP 800-38D).

These provide the building blocks used throughout the in-vehicle-network
security protocols:

* **CTR** — keystream generation, also the DRBG behind HRP-UWB scrambled
  timestamp sequences (:mod:`repro.phy.hrp`).
* **CMAC** — the MAC underlying AUTOSAR SECOC and CiA 613-2 CANsec.
* **GCM** — the AEAD mandated by IEEE 802.1AE MACsec (GCM-AES-128/256).

CMAC and GCM are the ``cryptography`` library's, keyed once per
:class:`Cmac` or :class:`Gcm` object.  The CTR keystream is
:meth:`repro.crypto.aes.AES.ctr_keystream`, which keeps this project's
counter: only the low 32 bits of the counter block count (GCM's
``inc32``).  :func:`ctr_keystream` is its one-shot form, keying a cipher
per call.

All algorithms are validated against published test vectors in the test
suite (SP 800-38A, RFC 4493 appendix, NIST GCM test cases) and against
the pure-Python implementation kept in ``tests/crypto_reference/modes.py``.
"""

from __future__ import annotations

from hmac import compare_digest

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.cmac import CMAC

from repro.crypto.aes import AES, aes_key, xor_bytes

__all__ = ["ctr_keystream", "ctr_xcrypt", "Cmac", "cmac", "Gcm", "AuthenticationError"]


class AuthenticationError(Exception):
    """Raised when an AEAD tag or MAC fails verification."""


def ctr_keystream(key: bytes, initial_counter: bytes, length: int) -> bytes:
    """One-shot AES-CTR keystream: :meth:`AES.ctr_keystream` under ``key``."""
    return AES(key).ctr_keystream(initial_counter, length)


def ctr_xcrypt(key: bytes, initial_counter: bytes, data: bytes) -> bytes:
    """Encrypt or decrypt ``data`` with AES-CTR (the operation is symmetric)."""
    return xor_bytes(data, ctr_keystream(key, initial_counter, len(data)))


class Cmac:
    """AES-CMAC per RFC 4493, with support for truncated tags.

    Truncation matters for the reproduction: SECOC and CANsec transmit
    truncated MACs to save bus bandwidth, trading forgery resistance for
    goodput (ablation ABL-2 in DESIGN.md).
    """

    def __init__(self, key: bytes) -> None:
        self.key = aes_key(key)
        self._mac = CMAC(algorithms.AES(self.key))

    def __reduce__(self) -> tuple[type[Cmac], tuple[bytes]]:
        return (type(self), (self.key,))

    def tag(self, message: bytes, tag_bits: int = 128) -> bytes:
        """Compute the CMAC over ``message`` truncated to ``tag_bits`` bits.

        ``tag_bits`` must be a positive multiple of 8, at most 128. The tag
        keeps the most significant (leftmost) bytes, per RFC 4493 §2.4 and
        AUTOSAR SECOC truncation rules.
        """
        if tag_bits <= 0 or tag_bits > 128 or tag_bits % 8:
            raise ValueError("tag_bits must be a multiple of 8 in (0, 128]")
        mac = self._mac.copy()
        mac.update(message)
        return mac.finalize()[: tag_bits // 8]

    def verify(self, message: bytes, tag: bytes) -> bool:
        """Check a (possibly truncated) tag; any length outside 1..16 is false."""
        if not 1 <= len(tag) <= 16:
            return False
        return compare_digest(self.tag(message, tag_bits=len(tag) * 8), tag)


def cmac(key: bytes, message: bytes, tag_bits: int = 128) -> bytes:
    """One-shot AES-CMAC."""
    return Cmac(key).tag(message, tag_bits=tag_bits)


#: Tag lengths in bytes that NIST SP 800-38D §5.2.1.2 allows.
_GCM_TAG_LENGTHS = frozenset({4, 8, 12, 13, 14, 15, 16})


class Gcm:
    """AES-GCM authenticated encryption (NIST SP 800-38D).

    Takes IVs of 8 to 128 bytes, as the library does, and raises
    ``ValueError`` for any other length; 12 bytes (96 bits) is the fast
    path and the one every protocol model uses.  This is the AEAD used by
    the MACsec model (:mod:`repro.ivn.macsec`).

    Sealing and full 16-byte tags go through the library's ``AESGCM``,
    keyed once per object; a truncated tag is verified with a one-off
    ``GCM`` mode context, the only library form that accepts one.
    """

    def __init__(self, key: bytes) -> None:
        self.key = aes_key(key)
        self._aead = AESGCM(self.key)

    def __reduce__(self) -> tuple[type[Gcm], tuple[bytes]]:
        return (type(self), (self.key,))

    def encrypt(self, iv: bytes, plaintext: bytes, aad: bytes = b"",
                tag_len: int = 16) -> tuple[bytes, bytes]:
        """Return ``(ciphertext, tag)``; ``tag_len`` is 4, 8 or 12..16 bytes."""
        if tag_len not in _GCM_TAG_LENGTHS:
            raise ValueError(f"GCM tag length must be one of {sorted(_GCM_TAG_LENGTHS)} bytes")
        sealed = self._aead.encrypt(iv, plaintext, aad)
        return sealed[:-16], sealed[-16:][:tag_len]

    def decrypt(self, iv: bytes, ciphertext: bytes, tag: bytes, aad: bytes = b"") -> bytes:
        """Verify ``tag`` and return the plaintext; raise on failure.

        A tag of a length SP 800-38D does not allow fails like a wrong one.
        """
        if len(tag) not in _GCM_TAG_LENGTHS:
            raise AuthenticationError("GCM tag verification failed")
        try:
            if len(tag) == 16:
                return self._aead.decrypt(iv, ciphertext + tag, aad)
            mode = modes.GCM(iv, tag, min_tag_length=4)
            decryptor = Cipher(algorithms.AES(self.key), mode).decryptor()
            decryptor.authenticate_additional_data(aad)
            return decryptor.update(ciphertext) + decryptor.finalize()
        except InvalidTag:
            raise AuthenticationError("GCM tag verification failed") from None
