"""Differential tests of the pure-Python crypto against the ``cryptography`` library.

The published vectors in ``test_crypto_*.py`` pin a handful of inputs; these
tests compare every primitive with an independent implementation on
Hypothesis-drawn keys, messages, IVs and truncations.  They are the
equivalence oracle any faster code path in :mod:`repro.crypto` has to pass.
``cryptography`` is a test-only dependency (the ``test`` extra).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("cryptography")

from cryptography.hazmat.primitives import hashes, hmac  # noqa: E402
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey  # noqa: E402
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey  # noqa: E402
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes  # noqa: E402
from cryptography.hazmat.primitives.ciphers.aead import AESGCM  # noqa: E402
from cryptography.hazmat.primitives.cmac import CMAC  # noqa: E402
from cryptography.hazmat.primitives.kdf.hkdf import HKDF  # noqa: E402
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat  # noqa: E402

from repro.crypto.aes import AES  # noqa: E402
from repro.crypto.ed25519 import generate_public_key, sign, verify  # noqa: E402
from repro.crypto.kdf import hkdf, hmac_sha256  # noqa: E402
from repro.crypto.modes import AuthenticationError, Cmac, Gcm, ctr_keystream  # noqa: E402
from repro.crypto.x25519 import x25519, x25519_base  # noqa: E402

aes_keys = st.sampled_from([16, 24, 32]).flatmap(lambda n: st.binary(min_size=n, max_size=n))
blocks = st.binary(min_size=16, max_size=16)
raw32 = st.binary(min_size=32, max_size=32)


def _raw_public(key) -> bytes:
    return key.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)


@given(aes_keys, blocks)
def test_aes_block_matches_ecb(key, block):
    ecb = Cipher(algorithms.AES(key), modes.ECB())
    expected = ecb.encryptor().update(block)
    assert AES(key).encrypt_block(block) == expected
    assert AES(key).decrypt_block(block) == ecb.decryptor().update(block)


@given(aes_keys, st.binary(max_size=80))
def test_cmac_matches_every_truncation(key, message):
    oracle = CMAC(algorithms.AES(key))
    oracle.update(message)
    expected = oracle.finalize()
    mac = Cmac(key)
    for n in range(1, 17):
        assert mac.tag(message, tag_bits=8 * n) == expected[:n]
        assert mac.verify(message, expected[:n])


@given(aes_keys, st.one_of(st.binary(min_size=12, max_size=12), st.binary(min_size=8, max_size=40)),
       st.binary(max_size=70), st.binary(max_size=40))
def test_gcm_matches_library(key, iv, plaintext, aad):
    sealed = AESGCM(key).encrypt(iv, plaintext, aad)
    gcm = Gcm(key)
    ciphertext, tag = gcm.encrypt(iv, plaintext, aad=aad)
    assert ciphertext + tag == sealed
    assert gcm.decrypt(iv, sealed[:-16], sealed[-16:], aad=aad) == plaintext


@given(aes_keys, st.binary(min_size=12, max_size=12), st.binary(max_size=40),
       st.sampled_from([4, 8, 12, 13, 14, 15, 16]))
def test_gcm_accepts_library_truncated_tags(key, iv, plaintext, tag_len):
    sealed = AESGCM(key).encrypt(iv, plaintext, b"")
    ciphertext, tag = sealed[:-16], sealed[-16:]
    assert Gcm(key).decrypt(iv, ciphertext, tag[:tag_len]) == plaintext
    with pytest.raises(AuthenticationError):
        Gcm(key).decrypt(iv, ciphertext, bytes([tag[0] ^ 1]) + tag[1:tag_len])


@given(aes_keys, st.binary(min_size=12, max_size=12), st.integers(0, 200), st.data())
def test_ctr_keystream_matches_library(key, prefix, length, data):
    # The library counts over all 128 bits, this module over the low 32:
    # they agree while the low word does not wrap.
    n_blocks = (length + 15) // 16
    low = data.draw(st.integers(0, 2**32 - max(n_blocks, 1)))
    counter = prefix + low.to_bytes(4, "big")
    expected = Cipher(algorithms.AES(key), modes.CTR(counter)).encryptor().update(bytes(length))
    assert ctr_keystream(key, counter, length) == expected


@given(st.binary(max_size=64), st.binary(max_size=80))
def test_hmac_sha256_matches_library(key, message):
    oracle = hmac.HMAC(key, hashes.SHA256())
    oracle.update(message)
    assert hmac_sha256(key, message) == oracle.finalize()


@given(st.binary(max_size=64), st.binary(max_size=40), st.binary(max_size=40),
       st.integers(1, 255 * 32))
def test_hkdf_matches_library(ikm, salt, info, length):
    oracle = HKDF(algorithm=hashes.SHA256(), length=length, salt=salt or None, info=info)
    assert hkdf(ikm, salt=salt, info=info, length=length) == oracle.derive(ikm)


@settings(max_examples=10, deadline=None)
@given(raw32, st.binary(max_size=64))
def test_ed25519_matches_library(seed, message):
    key = Ed25519PrivateKey.from_private_bytes(seed)
    public = _raw_public(key)
    signature = key.sign(message)
    assert generate_public_key(seed) == public
    assert sign(seed, message) == signature
    assert verify(public, message, signature)
    assert not verify(public, message + b"!", signature)


@settings(max_examples=10, deadline=None)
@given(raw32, raw32)
def test_x25519_matches_library(scalar, peer_scalar):
    key = X25519PrivateKey.from_private_bytes(scalar)
    peer = X25519PrivateKey.from_private_bytes(peer_scalar)
    assert x25519_base(scalar) == _raw_public(key)
    assert x25519(scalar, _raw_public(peer)) == key.exchange(peer.public_key())
