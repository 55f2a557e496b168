"""Pure-Python reference implementations of the :mod:`repro.crypto` primitives.

:mod:`repro.crypto` calls the ``cryptography`` library.  The hand-written
code it replaced lives on here, unchanged, as the slow path the fast one is
checked against (``tests/test_crypto_oracle.py`` and
``tests/test_crypto_edges.py``):

* :mod:`.aes` — T-table AES (FIPS 197);
* :mod:`.modes` — CTR, CMAC and GCM with Shoup's 4-bit GHASH tables;
* :mod:`.ed25519` — Ed25519 over extended Edwards coordinates (RFC 8032);
* :mod:`.x25519` — the X25519 Montgomery ladder (RFC 7748).

Nothing under ``src/`` imports these modules.
"""
