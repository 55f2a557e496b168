"""Pure-Python cryptographic substrate for the reproduction.

The offline environment has no binary crypto packages, so every primitive
the paper's protocol stacks rely on is implemented here from the relevant
specifications and pinned to published test vectors:

* :mod:`repro.crypto.aes` — AES-128/192/256 block cipher (FIPS 197).
* :mod:`repro.crypto.modes` — CTR, CMAC (RFC 4493), GCM (SP 800-38D).
* :mod:`repro.crypto.ed25519` — Ed25519 signatures (RFC 8032).
* :mod:`repro.crypto.x25519` — X25519 key agreement (RFC 7748).
* :mod:`repro.crypto.kdf` — HMAC-SHA256 / HKDF (RFC 5869).

AES encrypts with 32-bit T-tables and a word-based key schedule, and GCM
computes GHASH with Shoup's 4-bit tables, built once per key.  Besides the
published vectors, ``tests/test_crypto_oracle.py`` checks every primitive
differentially against the ``cryptography`` library, a test-only
dependency.  These are simulation substrates: spec-shaped and correct, but
not constant-time and not intended for production use.
"""

from repro.crypto.aes import AES, xor_bytes
from repro.crypto.ed25519 import SignatureError, generate_public_key, sign, verify
from repro.crypto.kdf import hkdf, hkdf_expand, hkdf_extract, hmac_sha256
from repro.crypto.modes import AuthenticationError, Cmac, Gcm, cmac, ctr_keystream, ctr_xcrypt
from repro.crypto.shamir import reconstruct_secret, split_secret
from repro.crypto.x25519 import x25519, x25519_base

__all__ = [
    "AES",
    "xor_bytes",
    "Cmac",
    "cmac",
    "Gcm",
    "AuthenticationError",
    "ctr_keystream",
    "ctr_xcrypt",
    "generate_public_key",
    "sign",
    "verify",
    "SignatureError",
    "split_secret",
    "reconstruct_secret",
    "x25519",
    "x25519_base",
    "hkdf",
    "hkdf_extract",
    "hkdf_expand",
    "hmac_sha256",
]
