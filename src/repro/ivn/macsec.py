"""IEEE 802.1AE MACsec — Table I, scenarios S2/S3 (paper Figs. 5–6).

MACsec [20] provides hop-scoped (or, over CANAL, end-to-end)
authenticated encryption at the data-link layer:

* :class:`SecureChannel` / :class:`SecureAssociation` — the 802.1AE
  object model: a unidirectional SC identified by an SCI, carrying
  rotating SAs keyed by (AN, SAK), each with a monotonically increasing
  packet number used as the GCM nonce and for replay protection;
* :class:`MacsecPort` (the SecY) — protect/validate frames with GCM-AES,
  SecTAG encoding, replay window enforcement;
* :class:`MkaSession` — a minimal MACsec Key Agreement [25] model:
  peers holding the same CAK derive and distribute a SAK (HKDF from the
  CAK, as MKA's AES-KDF does) and install it into their SecYs.

The model carries real cryptography (AES-GCM from
:mod:`repro.crypto.modes`) so tamper/replay behaviour in the scenario
tests is enforced by the math, not by flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.kdf import hkdf
from repro.crypto.modes import AuthenticationError, Gcm

__all__ = ["Sci", "SecureAssociation", "SecureChannel", "MacsecFrame", "MacsecPort", "MkaSession"]


@dataclass(frozen=True)
class Sci:
    """Secure Channel Identifier: system address + port id."""

    system_id: str
    port: int = 1

    def encode(self) -> bytes:
        return self.system_id.encode()[:6].ljust(6, b"\x00") + self.port.to_bytes(2, "big")


@dataclass
class SecureAssociation:
    """One SA: association number, key, and next packet number.

    Installing an SA installs its cipher: ``gcm`` is keyed with the SAK
    once, as a SecY loads a SAK into its cipher suite, and every frame
    protected or validated under this SA reuses it.
    """

    an: int
    sak: bytes
    next_pn: int = 1
    gcm: Gcm = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.an <= 3:
            raise ValueError("AN is a 2-bit field")
        if len(self.sak) not in (16, 32):
            raise ValueError("SAK must be 128 or 256 bits")
        self.gcm = Gcm(self.sak)


@dataclass
class SecureChannel:
    """A unidirectional secure channel with up to four rotating SAs."""

    sci: Sci
    associations: dict[int, SecureAssociation] = field(default_factory=dict)
    active_an: int = 0

    def install_sa(self, sa: SecureAssociation, *, activate: bool = True) -> None:
        self.associations[sa.an] = sa
        if activate:
            self.active_an = sa.an

    @property
    def active(self) -> SecureAssociation:
        try:
            return self.associations[self.active_an]
        except KeyError:
            raise RuntimeError("no active SA installed") from None


@dataclass(frozen=True)
class MacsecFrame:
    """A protected frame: SecTAG fields + ciphertext + ICV."""

    sci: Sci
    an: int
    pn: int
    ciphertext: bytes
    icv: bytes
    dst: str = ""
    src: str = ""


class MacsecPort:
    """A SecY: one transmit SC plus any number of receive SCs.

    Args:
        system_id: this station's identity (forms its SCI).
        replay_window: accepted out-of-order distance; 0 = strict order.
    """

    def __init__(self, system_id: str, *, replay_window: int = 0) -> None:
        if replay_window < 0:
            raise ValueError("replay window must be non-negative")
        self.sci = Sci(system_id)
        self.tx_sc = SecureChannel(self.sci)
        self.rx_scs: dict[bytes, SecureChannel] = {}
        self.replay_window = replay_window
        # Replay state is kept per (SC, AN): packet numbers restart at 1
        # when MKA installs a fresh SAK under a new association number.
        self._rx_highest: dict[tuple[bytes, int], int] = {}
        self._rx_seen: dict[tuple[bytes, int], set[int]] = {}
        self.stats = {"protected": 0, "validated": 0, "replay_dropped": 0, "auth_failed": 0}

    # -- key management ------------------------------------------------------

    def install_tx_sak(self, an: int, sak: bytes) -> None:
        self.tx_sc.install_sa(SecureAssociation(an, sak))

    def install_rx_sak(self, peer_sci: Sci, an: int, sak: bytes) -> None:
        key = peer_sci.encode()
        channel = self.rx_scs.setdefault(key, SecureChannel(peer_sci))
        channel.install_sa(SecureAssociation(an, sak))
        # A fresh SA restarts its packet numbers at 1; stale replay
        # state from a previous SAK that used the same AN must go.
        self._rx_highest.pop((key, an), None)
        self._rx_seen.pop((key, an), None)

    @property
    def stored_keys(self) -> int:
        """Number of SAKs held by this SecY (the key-storage census of S1/S2)."""
        count = len(self.tx_sc.associations)
        count += sum(len(sc.associations) for sc in self.rx_scs.values())
        return count

    # -- data path -----------------------------------------------------------

    def _nonce(self, sci: Sci, pn: int) -> bytes:
        return sci.encode() + pn.to_bytes(4, "big")

    def protect(self, payload: bytes, *, aad: bytes = b"",
                dst: str = "", src: str = "") -> MacsecFrame:
        """Encrypt-and-authenticate a frame for transmission."""
        sa = self.tx_sc.active
        pn = sa.next_pn
        sa.next_pn += 1
        header = self.sci.encode() + bytes([sa.an]) + pn.to_bytes(4, "big") + aad
        ciphertext, icv = sa.gcm.encrypt(self._nonce(self.sci, pn), payload, aad=header)
        self.stats["protected"] += 1
        return MacsecFrame(self.sci, sa.an, pn, ciphertext, icv, dst=dst, src=src)

    def validate(self, frame: MacsecFrame, *, aad: bytes = b"") -> bytes | None:
        """Verify and decrypt a received frame.

        Returns the plaintext, or None when the frame is dropped
        (unknown SC, authentication failure, or replay).
        """
        channel = self.rx_scs.get(frame.sci.encode())
        if channel is None or frame.an not in channel.associations:
            self.stats["auth_failed"] += 1
            return None
        sa = channel.associations[frame.an]
        sc_key = (frame.sci.encode(), frame.an)
        highest = self._rx_highest.get(sc_key, 0)
        if frame.pn <= highest - self.replay_window or frame.pn in self._rx_seen.get(sc_key, set()):
            self.stats["replay_dropped"] += 1
            return None
        header = frame.sci.encode() + bytes([frame.an]) + frame.pn.to_bytes(4, "big") + aad
        try:
            plaintext = sa.gcm.decrypt(self._nonce(frame.sci, frame.pn),
                                       frame.ciphertext, frame.icv, aad=header)
        except AuthenticationError:
            self.stats["auth_failed"] += 1
            return None
        seen = self._rx_seen.setdefault(sc_key, set())
        seen.add(frame.pn)
        if frame.pn > highest:
            # PNs at or below the new floor fail the window check anyway,
            # so the replay set only keeps the ones inside the window.
            self._rx_highest[sc_key] = frame.pn
            floor = frame.pn - self.replay_window
            self._rx_seen[sc_key] = {pn for pn in seen if pn > floor}
        self.stats["validated"] += 1
        return plaintext


class MkaSession:
    """Minimal MACsec Key Agreement: derive and install a SAK from a CAK.

    All members of a connectivity association share the CAK; the key
    server derives the SAK with a KDF over the CAK and a key number
    (802.1X-2020 §9.8 uses AES-CMAC-KDF; HKDF is the stand-in here) and
    installs it into every member's SecY.
    """

    def __init__(self, cak: bytes, members: list[MacsecPort]) -> None:
        if len(cak) not in (16, 32):
            raise ValueError("CAK must be 128 or 256 bits")
        if len(members) < 2:
            raise ValueError("a connectivity association needs >= 2 members")
        self.cak = cak
        self.members = members
        self.key_number = 0

    def distribute_sak(self) -> bytes:
        """Derive the next SAK and install it on all members (AN rotates)."""
        self.key_number += 1
        sak = hkdf(self.cak, info=b"IEEE8021 SAK" + self.key_number.to_bytes(4, "big"),
                   length=16)
        an = self.key_number % 4
        for member in self.members:
            member.install_tx_sak(an, sak)
            for peer in self.members:
                if peer is not member:
                    member.install_rx_sak(peer.sci, an, sak)
        return sak
