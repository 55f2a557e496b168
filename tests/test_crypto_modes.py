"""CMAC (RFC 4493) and GCM (NIST SP 800-38D) tests against published vectors."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.modes import AuthenticationError, Cmac, Gcm, cmac, ctr_xcrypt

RFC4493_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
RFC4493_MSG = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)


class TestCmacRfc4493:
    def test_empty_message(self):
        assert cmac(RFC4493_KEY, b"") == bytes.fromhex("bb1d6929e95937287fa37d129b756746")

    def test_16_byte_message(self):
        assert cmac(RFC4493_KEY, RFC4493_MSG[:16]) == bytes.fromhex(
            "070a16b46b4d4144f79bdd9dd04a287c"
        )

    def test_40_byte_message(self):
        assert cmac(RFC4493_KEY, RFC4493_MSG[:40]) == bytes.fromhex(
            "dfa66747de9ae63030ca32611497c827"
        )

    def test_64_byte_message(self):
        assert cmac(RFC4493_KEY, RFC4493_MSG) == bytes.fromhex(
            "51f0bebf7e3b9d92fc49741779363cfe"
        )


class TestCmacTruncation:
    def test_truncated_tag_is_prefix(self):
        full = cmac(RFC4493_KEY, b"hello")
        assert cmac(RFC4493_KEY, b"hello", tag_bits=32) == full[:4]
        assert cmac(RFC4493_KEY, b"hello", tag_bits=64) == full[:8]

    @pytest.mark.parametrize("bad_bits", [0, -8, 7, 129, 136])
    def test_invalid_truncation_rejected(self, bad_bits):
        with pytest.raises(ValueError):
            cmac(RFC4493_KEY, b"x", tag_bits=bad_bits)

    def test_verify_accepts_and_rejects(self):
        mac = Cmac(RFC4493_KEY)
        tag = mac.tag(b"message", tag_bits=64)
        assert mac.verify(b"message", tag)
        assert not mac.verify(b"messagf", tag)
        assert not mac.verify(b"message", bytes(8))

    @pytest.mark.parametrize("bad_len", [0, 17, 32])
    def test_verify_rejects_malformed_tag_length(self, bad_len):
        mac = Cmac(RFC4493_KEY)
        tag = (mac.tag(b"message") * 2)[:bad_len]
        assert mac.verify(b"message", tag) is False

    @given(st.binary(max_size=80), st.sampled_from([32, 64, 128]))
    def test_verify_roundtrip_property(self, message, bits):
        mac = Cmac(b"\x42" * 16)
        assert mac.verify(message, mac.tag(message, tag_bits=bits))


class TestGcmNistVectors:
    def test_case_1_empty(self):
        gcm = Gcm(b"\x00" * 16)
        ct, tag = gcm.encrypt(b"\x00" * 12, b"")
        assert ct == b""
        assert tag == bytes.fromhex("58e2fccefa7e3061367f1d57a4e7455a")

    def test_case_2_single_block(self):
        gcm = Gcm(b"\x00" * 16)
        ct, tag = gcm.encrypt(b"\x00" * 12, b"\x00" * 16)
        assert ct == bytes.fromhex("0388dace60b6a392f328c2b971b2fe78")
        assert tag == bytes.fromhex("ab6e47d42cec13bdf53a67b21257bddf")

    def test_case_3_multi_block(self):
        key = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
        iv = bytes.fromhex("cafebabefacedbaddecaf888")
        pt = bytes.fromhex(
            "d9313225f88406e5a55909c5aff5269a"
            "86a7a9531534f7da2e4c303d8a318a72"
            "1c3c0c95956809532fcf0e2449a6b525"
            "b16aedf5aa0de657ba637b391aafd255"
        )
        gcm = Gcm(key)
        ct, tag = gcm.encrypt(iv, pt)
        assert ct == bytes.fromhex(
            "42831ec2217774244b7221b784d0d49c"
            "e3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa05"
            "1ba30b396a0aac973d58e091473f5985"
        )
        assert tag == bytes.fromhex("4d5c2af327cd64a62cf35abd2ba6fab4")

    def test_case_4_with_aad(self):
        key = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
        iv = bytes.fromhex("cafebabefacedbaddecaf888")
        pt = bytes.fromhex(
            "d9313225f88406e5a55909c5aff5269a"
            "86a7a9531534f7da2e4c303d8a318a72"
            "1c3c0c95956809532fcf0e2449a6b525"
            "b16aedf5aa0de657ba637b39"
        )
        aad = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")
        gcm = Gcm(key)
        ct, tag = gcm.encrypt(iv, pt, aad=aad)
        assert ct == bytes.fromhex(
            "42831ec2217774244b7221b784d0d49c"
            "e3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa05"
            "1ba30b396a0aac973d58e091"
        )
        assert tag == bytes.fromhex("5bc94fbc3221a5db94fae95ae7121a47")


class TestGcmBehaviour:
    def test_decrypt_roundtrip(self):
        gcm = Gcm(b"\x07" * 16)
        ct, tag = gcm.encrypt(b"\x01" * 12, b"payload bytes", aad=b"header")
        assert gcm.decrypt(b"\x01" * 12, ct, tag, aad=b"header") == b"payload bytes"

    def test_tampered_ciphertext_rejected(self):
        gcm = Gcm(b"\x07" * 16)
        ct, tag = gcm.encrypt(b"\x01" * 12, b"payload bytes")
        bad = bytes([ct[0] ^ 1]) + ct[1:]
        with pytest.raises(AuthenticationError):
            gcm.decrypt(b"\x01" * 12, bad, tag)

    def test_tampered_aad_rejected(self):
        gcm = Gcm(b"\x07" * 16)
        ct, tag = gcm.encrypt(b"\x01" * 12, b"payload", aad=b"aad-1")
        with pytest.raises(AuthenticationError):
            gcm.decrypt(b"\x01" * 12, ct, tag, aad=b"aad-2")

    def test_non_96_bit_iv(self):
        gcm = Gcm(b"\x07" * 16)
        ct, tag = gcm.encrypt(b"\x02" * 16, b"data")
        assert gcm.decrypt(b"\x02" * 16, ct, tag) == b"data"

    @given(st.binary(max_size=120), st.binary(max_size=40))
    def test_roundtrip_property(self, pt, aad):
        gcm = Gcm(b"\x33" * 16)
        ct, tag = gcm.encrypt(b"\x09" * 12, pt, aad=aad)
        assert gcm.decrypt(b"\x09" * 12, ct, tag, aad=aad) == pt


class TestGcmTagLength:
    """SP 800-38D allows tags of 4, 8 and 12..16 bytes, and no others."""

    @pytest.mark.parametrize("bad_len", [0, 3, 17])
    def test_decrypt_rejects_disallowed_tag_length(self, bad_len):
        gcm = Gcm(b"\x07" * 16)
        ct, tag = gcm.encrypt(b"\x01" * 12, b"payload bytes")
        with pytest.raises(AuthenticationError):
            gcm.decrypt(b"\x01" * 12, ct, (tag + tag)[:bad_len])

    @pytest.mark.parametrize("bad_len", [0, 1, 3, 5, 11, 17])
    def test_encrypt_rejects_disallowed_tag_length(self, bad_len):
        with pytest.raises(ValueError):
            Gcm(b"\x07" * 16).encrypt(b"\x01" * 12, b"payload", tag_len=bad_len)

    @pytest.mark.parametrize("tag_len", [4, 8, 12, 13, 14, 15, 16])
    def test_allowed_truncations_roundtrip(self, tag_len):
        gcm = Gcm(b"\x07" * 16)
        ct, tag = gcm.encrypt(b"\x01" * 12, b"payload", tag_len=tag_len)
        assert len(tag) == tag_len
        assert tag == gcm.encrypt(b"\x01" * 12, b"payload")[1][:tag_len]
        assert gcm.decrypt(b"\x01" * 12, ct, tag) == b"payload"


def test_ctr_xcrypt_is_involution():
    key = b"\x11" * 16
    counter = b"\x00" * 16
    data = b"the quick brown fox jumps over"
    assert ctr_xcrypt(key, counter, ctr_xcrypt(key, counter, data)) == data
