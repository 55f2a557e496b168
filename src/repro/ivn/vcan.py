"""Virtual CAN networks over CAN XL (paper §III).

CAN XL frames carry an 8-bit **VCID** (virtual CAN network id) and a
32-bit acceptance field, letting one physical segment host several
logical networks — e.g. a safety network and a comfort network sharing
a cable.  This module models the isolation question that raises:

* :class:`VirtualCanNetwork` — VCID-based delivery filtering: nodes
  subscribe to VCIDs and only see matching frames (the *functional*
  isolation);
* the **VCID spoofing** problem: filtering is not security — a
  compromised node can emit any VCID, crossing the logical boundary;
* the fix: CANsec (:mod:`repro.ivn.cansec`) authenticates the VCID and
  acceptance field inside its AAD, so a frame rewritten to another VCID
  fails verification at the receiver — which the tests demonstrate
  end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ivn.cansec import CansecSecuredFrame, CansecZone
from repro.ivn.frames import CanXlFrame

__all__ = ["VirtualCanNetwork", "VcidSpoofAttacker"]


@dataclass
class VirtualCanNetwork:
    """A physical CAN XL segment hosting VCID-separated logical networks."""

    name: str = "xl0"
    _subscriptions: dict[str, set[int]] = field(default_factory=dict)
    _inboxes: dict[str, list[CanXlFrame | CansecSecuredFrame]] = field(default_factory=dict)
    _zones: dict[int, CansecZone] = field(default_factory=dict)

    def attach(self, node: str, vcids: set[int]) -> None:
        if node in self._subscriptions:
            raise ValueError(f"duplicate node {node!r}")
        if any(not 0 <= v < 256 for v in vcids):
            raise ValueError("VCIDs are 8-bit")
        self._subscriptions[node] = set(vcids)
        self._inboxes[node] = []

    def secure_vcid(self, vcid: int, key: bytes) -> CansecZone:
        """Protect one virtual network with a CANsec zone key."""
        zone = CansecZone(key)
        self._zones[vcid] = zone
        return zone

    def send(self, sender: str, frame: CanXlFrame | CansecSecuredFrame) -> None:
        """Broadcast on the physical segment; VCID filters delivery."""
        if sender not in self._subscriptions:
            raise KeyError(f"unknown node {sender!r}")
        vcid = (frame.frame.vcid if isinstance(frame, CansecSecuredFrame)
                else frame.vcid)
        for node, vcids in self._subscriptions.items():
            if node != sender and vcid in vcids:
                self._inboxes[node].append(frame)

    def receive(self, node: str) -> list[CanXlFrame | CansecSecuredFrame]:
        """Drain a node's inbox."""
        frames = self._inboxes[node]
        self._inboxes[node] = []
        return frames

    def receive_verified(self, node: str, vcid: int) -> list[bytes]:
        """Drain + CANsec-verify frames of a secured VCID.

        Returns the plaintext payloads of frames that verify; everything
        else (plain frames on a secured VCID, frames failing the ICV) is
        dropped — the secured network accepts only authentic traffic.
        """
        zone = self._zones.get(vcid)
        if zone is None:
            raise KeyError(f"VCID {vcid} is not secured")
        accepted = []
        for frame in self.receive(node):
            if not isinstance(frame, CansecSecuredFrame):
                continue
            if frame.frame.vcid != vcid:
                continue
            plaintext = zone.verify(frame)
            if plaintext is not None:
                accepted.append(plaintext)
        return accepted


@dataclass
class VcidSpoofAttacker:
    """A compromised node emitting frames tagged with a foreign VCID."""

    node: str

    def spoof(self, network: VirtualCanNetwork, *, target_vcid: int,
              payload: bytes, priority: int = 0x40) -> None:
        """Inject an unauthenticated frame into another virtual network."""
        network.send(self.node, CanXlFrame(
            priority_id=priority, payload=payload, vcid=target_vcid))

    def replay_into_vcid(self, network: VirtualCanNetwork,
                         captured: CansecSecuredFrame, *,
                         target_vcid: int) -> None:
        """Re-tag a captured secured frame with a different VCID.

        The VCID is part of CANsec's authenticated data, so the
        receiver's verification fails — the cross-network replay dies.
        """
        original = captured.frame
        moved = CanXlFrame(
            priority_id=original.priority_id,
            payload=original.payload,
            sdu_type=original.sdu_type,
            vcid=target_vcid,
            acceptance_field=original.acceptance_field,
            sec=True,
        )
        network.send(self.node, CansecSecuredFrame(
            moved, captured.freshness, captured.icv, captured.encrypted))
