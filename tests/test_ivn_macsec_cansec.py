"""Tests for MACsec (SecY, MKA) and CANsec."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ivn.cansec import CANSEC_OVERHEAD_BYTES, CansecZone
from repro.ivn.frames import CanXlFrame
from repro.ivn.macsec import MacsecFrame, MacsecPort, MkaSession, Sci, SecureAssociation


def _pair():
    a = MacsecPort("node-a")
    b = MacsecPort("node-b")
    MkaSession(b"\x66" * 16, [a, b]).distribute_sak()
    return a, b


class TestMacsecDataPath:
    def test_protect_validate_roundtrip(self):
        a, b = _pair()
        frame = a.protect(b"steering command")
        assert b.validate(frame) == b"steering command"

    def test_ciphertext_hides_plaintext(self):
        a, _ = _pair()
        frame = a.protect(b"secret payload!!")
        assert b"secret" not in frame.ciphertext

    def test_tampering_detected(self):
        a, b = _pair()
        frame = a.protect(b"brake command")
        tampered = MacsecFrame(frame.sci, frame.an, frame.pn,
                               bytes([frame.ciphertext[0] ^ 1]) + frame.ciphertext[1:],
                               frame.icv)
        assert b.validate(tampered) is None
        assert b.stats["auth_failed"] == 1

    def test_replay_dropped(self):
        a, b = _pair()
        frame = a.protect(b"payload")
        assert b.validate(frame) is not None
        assert b.validate(frame) is None
        assert b.stats["replay_dropped"] == 1

    def test_replay_window_allows_reordering(self):
        a = MacsecPort("node-a")
        b = MacsecPort("node-b", replay_window=4)
        MkaSession(b"\x67" * 16, [a, b]).distribute_sak()
        f1 = a.protect(b"one")
        f2 = a.protect(b"two")
        assert b.validate(f2) == b"two"
        assert b.validate(f1) == b"one"  # within window, not yet seen

    @pytest.mark.parametrize("window", [0, 1, 32])
    @settings(max_examples=40, deadline=None)
    @given(order=st.lists(st.integers(0, 59), max_size=120))
    def test_bounded_replay_set_keeps_verdicts(self, window, order):
        # Reordered and replayed deliveries of 60 protected frames: the
        # port's verdicts must equal those of an unbounded replay set.
        a = MacsecPort("node-a")
        b = MacsecPort("node-b", replay_window=window)
        MkaSession(b"\x68" * 16, [a, b]).distribute_sak()
        frames = [a.protect(bytes([i])) for i in range(60)]
        highest, seen = 0, set()
        for i in order:
            pn = frames[i].pn
            accepted = not (pn <= highest - window or pn in seen)
            if accepted:
                highest = max(highest, pn)
                seen.add(pn)
            assert (b.validate(frames[i]) is not None) == accepted
            assert all(len(pns) <= window + 1 for pns in b._rx_seen.values())

    def test_unknown_peer_dropped(self):
        a, b = _pair()
        stranger = MacsecPort("evil")
        stranger.install_tx_sak(0, b"\x99" * 16)
        frame = stranger.protect(b"injected")
        assert b.validate(frame) is None

    def test_empty_icv_forgery_dropped(self):
        a, b = _pair()
        frame = a.protect(b"brake command")
        forged = replace(frame, ciphertext=b"attacker-chosen!", icv=b"")
        assert b.validate(forged) is None
        assert b.stats["auth_failed"] == 1
        assert b.validate(frame) == b"brake command"

    def test_sa_cipher_is_installed_once(self):
        a, b = _pair()
        sa = a.tx_sc.active
        gcm = sa.gcm
        for payload in (b"one", b"two", b"three"):
            assert b.validate(a.protect(payload)) == payload
        assert sa.gcm is gcm
        # The cipher is derived state: it takes no part in equality or repr.
        assert SecureAssociation(sa.an, sa.sak, sa.next_pn) == sa
        assert "gcm" not in repr(sa)

    def test_packet_numbers_increase(self):
        a, _ = _pair()
        f1 = a.protect(b"x")
        f2 = a.protect(b"y")
        assert f2.pn == f1.pn + 1

    def test_sa_validation(self):
        with pytest.raises(ValueError):
            SecureAssociation(an=4, sak=b"\x00" * 16)
        with pytest.raises(ValueError):
            SecureAssociation(an=0, sak=b"\x00" * 15)
        with pytest.raises(ValueError):
            MacsecPort("x", replay_window=-1)


class TestMka:
    def test_distribute_installs_keys_everywhere(self):
        members = [MacsecPort(f"n{i}") for i in range(3)]
        MkaSession(b"\x11" * 16, members).distribute_sak()
        for m in members:
            assert m.stored_keys == 1 + 2  # tx + one rx per peer

    def test_rekey_rotates_an(self):
        a, b = _pair()
        frame1 = a.protect(b"before rekey")
        session = MkaSession(b"\x66" * 16, [a, b])
        session.key_number = 1  # continue the original session's numbering
        session.distribute_sak()
        frame2 = a.protect(b"after rekey")
        assert frame2.an != frame1.an
        assert b.validate(frame1) == b"before rekey"
        assert b.validate(frame2) == b"after rekey"

    def test_mka_validation(self):
        with pytest.raises(ValueError):
            MkaSession(b"\x00" * 10, [MacsecPort("a"), MacsecPort("b")])
        with pytest.raises(ValueError):
            MkaSession(b"\x00" * 16, [MacsecPort("a")])

    def test_sci_encoding_stable(self):
        sci = Sci("node-a", 3)
        assert len(sci.encode()) == 8
        assert sci.encode() == Sci("node-a", 3).encode()


class TestCansec:
    def _zone_pair(self, encrypt=True):
        key = b"\x77" * 16
        return CansecZone(key, encrypt=encrypt), CansecZone(key, encrypt=encrypt)

    def test_protect_verify_roundtrip(self):
        tx, rx = self._zone_pair()
        frame = CanXlFrame(0x50, b"wheel speed data")
        secured = tx.protect(frame)
        assert secured.frame.sec
        assert rx.verify(secured) == b"wheel speed data"

    def test_confidentiality_mode_hides_payload(self):
        tx, _ = self._zone_pair()
        secured = tx.protect(CanXlFrame(0x50, b"confidential!!"))
        assert b"confidential" not in secured.frame.payload

    def test_authentication_only_mode(self):
        tx, rx = self._zone_pair(encrypt=False)
        frame = CanXlFrame(0x50, b"plaintext visible")
        secured = tx.protect(frame)
        assert b"plaintext visible" in secured.frame.payload
        assert rx.verify(secured) == b"plaintext visible"

    def test_replay_rejected(self):
        tx, rx = self._zone_pair()
        secured = tx.protect(CanXlFrame(0x50, b"cmd"))
        assert rx.verify(secured) is not None
        assert rx.verify(secured) is None
        assert rx.stats["rejected"] == 1

    def test_tampered_header_rejected(self):
        from repro.ivn.cansec import CansecSecuredFrame

        tx, rx = self._zone_pair()
        secured = tx.protect(CanXlFrame(0x50, b"cmd", acceptance_field=7))
        moved = CansecSecuredFrame(
            CanXlFrame(
                priority_id=secured.frame.priority_id,
                payload=secured.frame.payload,
                sdu_type=secured.frame.sdu_type,
                vcid=secured.frame.vcid,
                acceptance_field=99,  # address redirected
                sec=True,
            ),
            secured.freshness, secured.icv, secured.encrypted,
        )
        assert rx.verify(moved) is None

    @pytest.mark.parametrize("encrypt", [True, False])
    def test_empty_icv_forgery_dropped(self, encrypt):
        from repro.ivn.cansec import CansecSecuredFrame

        tx, rx = self._zone_pair(encrypt=encrypt)
        secured = tx.protect(CanXlFrame(0x50, b"cmd"))
        forged = CansecSecuredFrame(
            replace(secured.frame, payload=b"attacker-chosen!" + b"\x00" * CANSEC_OVERHEAD_BYTES),
            secured.freshness, b"", secured.encrypted,
        )
        assert rx.verify(forged) is None
        assert rx.stats["rejected"] == 1
        assert rx.verify(secured) == b"cmd"

    def test_overhead_constant(self):
        tx, _ = self._zone_pair()
        frame = CanXlFrame(0x50, b"\x00" * 100)
        secured = tx.protect(frame)
        assert len(secured.frame.payload) == 100 + CANSEC_OVERHEAD_BYTES

    def test_double_protection_rejected(self):
        tx, _ = self._zone_pair()
        secured = tx.protect(CanXlFrame(0x50, b"cmd"))
        with pytest.raises(ValueError):
            tx.protect(secured.frame)

    def test_key_validation(self):
        with pytest.raises(ValueError):
            CansecZone(b"\x00" * 8)
