"""Keyed-once AES-CTR keystreams equal the one-shot ``ctr_keystream``.

An MTAC code and an HRP or V-Range ranging session each key one
:class:`repro.crypto.aes.AES` when they are built and draw every
message's keystream from it.  These tests check, for every message index
and STS counter the EXT-2 and ABL-1 experiments use, that the keystream
is the one a freshly keyed ``ctr_keystream(key, ...)`` gives, and that
an instance builds one key schedule however many messages it serves.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto import aes as aes_module
from repro.crypto.aes import AES
from repro.crypto.modes import ctr_keystream
from repro.phy.hrp import HrpRangingSession, generate_sts
from repro.phy.mtac import MtacCode
from repro.phy.vrange import VRangeSession

EXT2_KEY = b"\xD7" * 16
ABL1_KEY = b"\xB6" * 16

#: EXT-2's codes: (pulses, slots per symbol, message indices).  The
#: security curve sends messages 0 and 1 on four codes; the Monte-Carlo
#: run sends messages 0-399 on the weak 16-pulse code.
EXT2_CODES = ((16, 2, range(400)), (32, 4, range(2)), (64, 8, range(2)), (128, 8, range(2)))

#: ABL-1 ranges 2 x 8 rounds per session: STS counters 0-15.
ABL1_COUNTERS = range(16)


@pytest.mark.parametrize("n_pulses,slots,indices", EXT2_CODES)
def test_mtac_keystream_matches_one_shot(n_pulses, slots, indices):
    code = MtacCode(EXT2_KEY, n_pulses=n_pulses, slots_per_symbol=slots)
    for index in indices:
        counter = index.to_bytes(16, "big")
        stream = ctr_keystream(EXT2_KEY, counter, n_pulses)
        assert code._cipher.ctr_keystream(counter, n_pulses) == stream
        expected = np.frombuffer(stream, dtype=np.uint8) % slots
        assert np.array_equal(code.slot_assignment(index), expected)


def test_hrp_session_sts_matches_one_shot():
    session = HrpRangingSession(ABL1_KEY)
    for counter in ABL1_COUNTERS:
        block = counter.to_bytes(16, "big")
        length = (session.sts_length + 7) // 8
        assert session._cipher.ctr_keystream(block, length) == ctr_keystream(ABL1_KEY, block, length)
        assert np.array_equal(session.next_sts(), generate_sts(ABL1_KEY, counter, session.sts_length))


def test_vrange_keystream_matches_one_shot():
    session = VRangeSession(b"\xA5" * 16)
    length = (2 * session.config.n_subcarriers + 7) // 8
    for counter in range(8):
        block = counter.to_bytes(16, "big")
        assert session._cipher.ctr_keystream(block, length) == ctr_keystream(b"\xA5" * 16, block, length)


def test_keystream_wraps_the_low_32_bits_like_one_shot():
    key = bytes(range(16))
    cipher = AES(key)
    for low in (0, 1, 0xFFFFFFFE, 0xFFFFFFFF):
        block = b"\x11" * 12 + low.to_bytes(4, "big")
        for length in (0, 1, 16, 17, 48):
            assert cipher.ctr_keystream(block, length) == ctr_keystream(key, block, length)
    with pytest.raises(ValueError):
        cipher.ctr_keystream(b"\x00" * 15, 16)


def test_each_instance_keys_aes_once(monkeypatch):
    schedules = []
    original = aes_module.AES.__init__

    def counting(self, key):
        schedules.append(key)
        original(self, key)

    monkeypatch.setattr(aes_module.AES, "__init__", counting)
    code = MtacCode(EXT2_KEY, n_pulses=16, slots_per_symbol=2)
    for index in range(50):
        code.verify(index, code.advance_attack_slots(index))
    session = HrpRangingSession(ABL1_KEY)
    for _ in ABL1_COUNTERS:
        session.next_sts()
    vrange = VRangeSession(b"\xA5" * 16)
    for _ in range(4):
        vrange._tx_symbol()
    assert schedules == [EXT2_KEY, ABL1_KEY, b"\xA5" * 16]
