"""Differential tests of :mod:`repro.crypto` against the pure-Python reference.

:mod:`repro.crypto` calls the ``cryptography`` library; the hand-written
implementations it replaced are kept in ``tests/crypto_reference/`` as the
slow path.  The published vectors in ``test_crypto_*.py`` pin a handful of
inputs; these tests compare every primitive with its reference on
Hypothesis-drawn keys, messages, IVs and truncations.  HMAC and HKDF stay
pure Python in :mod:`repro.crypto.kdf`, so the library is their oracle.
"""

import pytest
from cryptography.hazmat.primitives import hashes, hmac
from cryptography.hazmat.primitives.kdf.hkdf import HKDF
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto.aes import AES
from repro.crypto.ed25519 import generate_public_key, sign, verify
from repro.crypto.kdf import hkdf, hmac_sha256
from repro.crypto.modes import AuthenticationError, Cmac, Gcm, ctr_keystream
from repro.crypto.x25519 import x25519, x25519_base
from tests.crypto_reference import aes as ref_aes
from tests.crypto_reference import ed25519 as ref_ed25519
from tests.crypto_reference import modes as ref_modes
from tests.crypto_reference import x25519 as ref_x25519

aes_keys = st.sampled_from([16, 24, 32]).flatmap(lambda n: st.binary(min_size=n, max_size=n))
blocks = st.binary(min_size=16, max_size=16)
raw32 = st.binary(min_size=32, max_size=32)


@given(aes_keys, blocks)
def test_aes_block_matches_ecb(key, block):
    reference = ref_aes.AES(key)
    assert AES(key).encrypt_block(block) == reference.encrypt_block(block)
    assert AES(key).decrypt_block(block) == reference.decrypt_block(block)


@given(aes_keys, st.binary(max_size=80))
def test_cmac_matches_every_truncation(key, message):
    expected = ref_modes.Cmac(key).tag(message)
    mac = Cmac(key)
    for n in range(1, 17):
        assert mac.tag(message, tag_bits=8 * n) == expected[:n]
        assert mac.verify(message, expected[:n])


@given(aes_keys, st.one_of(st.binary(min_size=12, max_size=12), st.binary(min_size=8, max_size=40)),
       st.binary(max_size=70), st.binary(max_size=40))
def test_gcm_matches_library(key, iv, plaintext, aad):
    ciphertext, tag = ref_modes.Gcm(key).encrypt(iv, plaintext, aad=aad)
    gcm = Gcm(key)
    assert gcm.encrypt(iv, plaintext, aad=aad) == (ciphertext, tag)
    assert gcm.decrypt(iv, ciphertext, tag, aad=aad) == plaintext


@given(aes_keys, st.binary(min_size=12, max_size=12), st.binary(max_size=40),
       st.sampled_from([4, 8, 12, 13, 14, 15, 16]))
def test_gcm_accepts_library_truncated_tags(key, iv, plaintext, tag_len):
    ciphertext, tag = ref_modes.Gcm(key).encrypt(iv, plaintext, tag_len=tag_len)
    assert Gcm(key).decrypt(iv, ciphertext, tag) == plaintext
    with pytest.raises(AuthenticationError):
        Gcm(key).decrypt(iv, ciphertext, bytes([tag[0] ^ 1]) + tag[1:])


@given(aes_keys, st.binary(min_size=12, max_size=12), st.integers(0, 2**32 - 1),
       st.integers(0, 200))
@example(bytes(16), bytes(12), 2**32 - 2, 48)
def test_ctr_keystream_matches_library(key, prefix, low, length):
    # Low counter words near 2**32 make the 32-bit counter wrap mid-stream.
    counter = prefix + low.to_bytes(4, "big")
    assert ctr_keystream(key, counter, length) == ref_modes.ctr_keystream(key, counter, length)


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
    public = ref_ed25519.generate_public_key(seed)
    signature = ref_ed25519.sign(seed, message)
    assert generate_public_key(seed) == public
    assert sign(seed, message) == signature
    assert verify(public, message, signature)
    assert not verify(public, message + b"!", signature)


@settings(max_examples=10, deadline=None)
@given(raw32, raw32)
def test_x25519_matches_library(scalar, u_coord):
    assert x25519_base(scalar) == ref_x25519.x25519_base(scalar)
    assert x25519(scalar, u_coord) == ref_x25519.x25519(scalar, u_coord)
