"""Edge cases where the ``cryptography`` library and the reference differ.

:mod:`repro.crypto` calls the library, whose decoders and limits are not
quite those of the pure-Python code in ``tests/crypto_reference/``.  Each
test here pins one such input to the reference's answer, or, for GCM IV
lengths, to the documented narrowing:

* Ed25519 public keys that RFC 8032 §5.1.3 rejects but OpenSSL decodes;
* X25519 with a small-order u, where the library refuses the all-zero
  shared secret the RFC 7748 ladder returns;
* GCM IVs outside 8..128 bytes, which the library refuses;
* GCM's 32-bit counter wrap, where a 128-bit counter would carry;
* pickling and deep-copying cipher objects that hold library contexts.
"""

import copy
import pickle

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import AES
from repro.crypto.ed25519 import verify
from repro.crypto.modes import Cmac, Gcm
from repro.crypto.x25519 import x25519
from repro.ivn.macsec import SecureAssociation
from tests.crypto_reference import aes as ref_aes
from tests.crypto_reference import ed25519 as ref_ed25519
from tests.crypto_reference import modes as ref_modes
from tests.crypto_reference import x25519 as ref_x25519

P = 2**255 - 19
SIGN_BIT = 1 << 255
KEY = bytes(range(16))


# -- Ed25519: non-canonical public keys ----------------------------------------

def _library_accepts(public: bytes, message: bytes, signature: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public).verify(signature, message)
    except InvalidSignature:
        return False
    return True


def _forgery(public: bytes) -> tuple[bytes, bytes]:
    """A message and signature the library accepts under a small-order key.

    With ``A`` of order n, ``R = rB`` and ``s = r`` verify whenever the
    challenge ``k`` is a multiple of n, so some message in a short search
    gives one.
    """
    r = 0x1234567
    r_point = ref_ed25519._compress(ref_ed25519._scalar_mult(ref_ed25519._B, r))
    signature = r_point + r.to_bytes(32, "little")
    for i in range(64):
        message = b"forged %d" % i
        if _library_accepts(public, message, signature):
            return message, signature
    raise AssertionError("the library rejects every forgery under this key")


@pytest.mark.parametrize("encoded", [
    P + 1,                  # y = 1 (the identity), y >= p
    P,                      # y = 0, y >= p
    1 | SIGN_BIT,           # x = 0 with the sign bit set
    (P - 1) | SIGN_BIT,     # y = -1, x = 0 with the sign bit set
], ids=["y=p+1", "y=p", "y=1-signed", "y=p-1-signed"])
def test_ed25519_rejects_non_canonical_public_keys(encoded):
    public = encoded.to_bytes(32, "little")
    message, signature = _forgery(public)
    assert not ref_ed25519.verify(public, message, signature)
    assert not verify(public, message, signature)


def test_ed25519_rejects_non_reduced_s():
    seed = b"\x21" * 32
    public = ref_ed25519.generate_public_key(seed)
    signature = ref_ed25519.sign(seed, b"msg")
    s = int.from_bytes(signature[32:], "little") + ref_ed25519._L
    malleated = signature[:32] + s.to_bytes(32, "little")
    assert not ref_ed25519.verify(public, b"msg", malleated)
    assert not verify(public, b"msg", malleated)


# -- X25519: small-order and non-canonical u -----------------------------------

SMALL_ORDER_U = [
    0,
    1,
    325606250916557431795983626356110631294008115727848805560023387167927233504,
    39382357235489614581723060781553021112529911719440698176882885853963445705823,
    P - 1,
    P,
    P + 1,
]


@pytest.mark.parametrize("u", SMALL_ORDER_U + [u | SIGN_BIT for u in SMALL_ORDER_U])
def test_x25519_small_order_u_gives_zeros(u):
    scalar = b"\x5a" * 32
    u_coord = u.to_bytes(32, "little")
    assert ref_x25519.x25519(scalar, u_coord) == bytes(32)
    assert x25519(scalar, u_coord) == bytes(32)


@settings(max_examples=10, deadline=None)
@given(st.binary(min_size=32, max_size=32), st.integers(P, 2**255 - 1), st.booleans())
def test_x25519_masks_and_reduces_u(scalar, u, high_bit):
    u_coord = (u | (SIGN_BIT if high_bit else 0)).to_bytes(32, "little")
    assert x25519(scalar, u_coord) == ref_x25519.x25519(scalar, u_coord)


# -- GCM: IV lengths and the 32-bit counter ------------------------------------

@pytest.mark.parametrize("iv_len", [0, 1, 7, 129])
def test_gcm_refuses_iv_lengths_outside_8_to_128(iv_len):
    iv = b"\x01" * iv_len
    ciphertext, tag = ref_modes.Gcm(KEY).encrypt(iv, b"payload")   # the reference takes any
    gcm = Gcm(KEY)
    with pytest.raises(ValueError):
        gcm.encrypt(iv, b"payload")
    with pytest.raises(ValueError):
        gcm.decrypt(iv, ciphertext, tag)


@pytest.mark.parametrize("iv_len", [8, 12, 16, 128])
def test_gcm_iv_lengths_8_to_128_match_reference(iv_len):
    iv = bytes(range(iv_len))
    sealed = ref_modes.Gcm(KEY).encrypt(iv, b"payload", aad=b"hdr", tag_len=12)
    assert Gcm(KEY).encrypt(iv, b"payload", aad=b"hdr", tag_len=12) == sealed
    assert Gcm(KEY).decrypt(iv, *sealed, aad=b"hdr") == b"payload"


_GHASH_R = 0xE1 << 120


def _gf128_mul(x: int, y: int) -> int:
    """SP 800-38D Algorithm 1: the GCM product, bit 127 the x^0 coefficient."""
    z = 0
    for i in range(127, -1, -1):
        if (x >> i) & 1:
            z ^= y
        y = (y >> 1) ^ _GHASH_R if y & 1 else y >> 1
    return z


def _gf128_inv(x: int) -> int:
    result, power, n = 1 << 127, x, 2**128 - 2
    while n:
        if n & 1:
            result = _gf128_mul(result, power)
        power = _gf128_mul(power, power)
        n >>= 1
    return result


def test_gcm_counter_wraps_low_32_bits():
    # A 16-byte IV whose J0 = GHASH(IV || len) ends in 0xfffffffe: the
    # second keystream block's counter wraps to 0 inside the low word.
    h = int.from_bytes(ref_aes.AES(KEY).encrypt_block(bytes(16)), "big")
    h_inv = _gf128_inv(h)
    j0 = bytes(range(12)) + b"\xff\xff\xff\xfe"
    length_block = 128
    iv_block = _gf128_mul(_gf128_mul(int.from_bytes(j0, "big"), h_inv) ^ length_block, h_inv)
    iv = iv_block.to_bytes(16, "big")
    assert ref_modes.Gcm(KEY)._j0(iv) == j0

    plaintext = bytes(48)
    sealed = ref_modes.Gcm(KEY).encrypt(iv, plaintext)
    assert Gcm(KEY).encrypt(iv, plaintext) == sealed
    assert Gcm(KEY).decrypt(iv, *sealed) == plaintext
    carried = Cipher(algorithms.AES(KEY), modes.CTR(bytes(range(12)) + b"\xff" * 4))
    assert sealed[0][16:32] != carried.encryptor().update(plaintext)[16:32]


# -- pickling --------------------------------------------------------------------

@pytest.mark.parametrize("make, use", [
    (AES, lambda c: c.encrypt_block(b"\x42" * 16) + c.decrypt_block(b"\x42" * 16)),
    (Cmac, lambda c: c.tag(b"message", tag_bits=64)),
    (Gcm, lambda c: b"".join(c.encrypt(b"\x07" * 12, b"payload", aad=b"hdr"))),
], ids=["AES", "Cmac", "Gcm"])
def test_cipher_objects_survive_pickle_and_deepcopy(make, use):
    original = make(KEY)
    expected = use(original)
    for clone in (pickle.loads(pickle.dumps(original)), copy.deepcopy(original)):
        assert type(clone) is type(original)
        assert clone.key == KEY
        assert use(clone) == expected
    assert use(original) == expected


def test_deepcopy_of_a_protocol_object_keeps_its_cipher():
    sa = SecureAssociation(1, KEY)
    clone = copy.deepcopy(sa)
    assert clone.gcm is not sa.gcm
    assert clone.gcm.encrypt(b"\x03" * 12, b"frame") == sa.gcm.encrypt(b"\x03" * 12, b"frame")
