"""Cryptographic substrate for the reproduction.

Every primitive the paper's protocol stacks rely on, behind one small API
and pinned to published test vectors:

* :mod:`repro.crypto.aes` — AES-128/192/256 block cipher (FIPS 197).
* :mod:`repro.crypto.modes` — CTR, CMAC (RFC 4493), GCM (SP 800-38D).
* :mod:`repro.crypto.ed25519` — Ed25519 signatures (RFC 8032).
* :mod:`repro.crypto.x25519` — X25519 key agreement (RFC 7748).
* :mod:`repro.crypto.kdf` — HMAC-SHA256 / HKDF (RFC 5869).
* :mod:`repro.crypto.shamir` — Shamir secret sharing over GF(2^8).

AES, the modes, Ed25519 and X25519 call the ``cryptography`` library,
and each cipher object is keyed once.  The pure-Python implementations
they replaced live on in ``tests/crypto_reference/`` as the slow path:
``tests/test_crypto_oracle.py`` checks every primitive against them on
Hypothesis-drawn inputs, and ``tests/test_crypto_edges.py`` pins the
inputs where the library and RFC 8032 / RFC 7748 decoding would differ.
``kdf`` and ``shamir`` stay pure Python.  The paper's comparisons
(Table I, Figs. 4–6) are of per-frame protocol overhead, which the frame
sizes carry; how fast the cipher runs is not part of them.
"""

from repro.crypto.x25519 import x25519_base

__all__ = ["x25519_base"]
