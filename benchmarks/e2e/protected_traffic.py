"""``protected-traffic``: a zonal vehicle's protected frames, cycle by cycle.

One op is one 10 ms communication cycle on a zone's CAN bus:

* 24 plain periodic CAN streams, sent with ``CanBus.send_batch`` and
  carried by ``CanBus.run_batch``;
* 8 S1 streams: ECU ``SecOcChannel.secure`` -> two classic-CAN segments
  on the bus -> zone controller ``MacsecPort.protect`` -> central
  computer ``MacsecPort.validate`` -> ``SecOcChannel.verify``;
* 4 S2 streams: end-to-end MACsec, 64-512 byte payloads;
* 4 S3 streams: ``CansecZone`` over CAN XL frames on the same bus.

Stream periods are 10/20/50/100 ms, so every tenth cycle is a tail
cycle in which all streams fire.  An attacker forges or replays 1% of
secured PDUs; each of those must be rejected and every honest PDU
delivered intact.  The key set is fixed (about 20 keys), so a per-key
cache would hit on almost every frame.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace

from harness import Step

from repro.core import Simulator
from repro.ivn import (PROFILE_1, BusNode, CanBus, CanFrame, CansecZone,
                       CanXlFrame, MacsecPort, MkaSession, SecOcChannel,
                       SecuredPdu)

NAME = "protected-traffic"
DIGEST_STEPS = 50
WARMUP_CYCLES = 20
CYCLE_S = 0.010
PERIOD_CYCLES = (1, 2, 5, 10)          # 10, 20, 50 and 100 ms
ATTACK_RATE = 0.01

PLAIN_IDS = tuple(0x300 + i for i in range(24))
S1_IDS = tuple(0x100 + i for i in range(8))
S2_STREAMS = 4
S3_IDS = tuple(0x200 + i for i in range(4))


def _fires(index: int, cycle: int) -> bool:
    return cycle % PERIOD_CYCLES[index % len(PERIOD_CYCLES)] == 0


def _attack(rng: random.Random) -> str | None:
    if rng.random() >= ATTACK_RATE:
        return None
    return rng.choice(("forge", "replay"))


def cycle_inputs(seed: int, cycle: int) -> dict:
    """Everything the senders and the attacker do in one cycle."""
    rng = random.Random(f"protected-traffic:{seed}:{cycle}")
    return {
        "plain": [(i, rng.randbytes(8)) for i in range(len(PLAIN_IDS))
                  if _fires(i, cycle)],
        "s1": [(i, rng.randbytes(8), _attack(rng)) for i in range(len(S1_IDS))
               if _fires(i, cycle)],
        "s2": [(i, rng.randbytes(rng.randint(64, 512)), _attack(rng))
               for i in range(S2_STREAMS) if _fires(i, cycle)],
        "s3": [(i, rng.randbytes(rng.randint(16, 256)), _attack(rng))
               for i in range(len(S3_IDS)) if _fires(i, cycle)],
    }


def _key(seed: int, label: str) -> bytes:
    return hashlib.sha256(f"protected-traffic:{seed}:{label}".encode()).digest()[:16]


def _flip_last(data: bytes) -> bytes:
    return data[:-1] + bytes([data[-1] ^ 0x01])


class World:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.bus = CanBus(Simulator(), name="zone-left")
        for name in ("ecu-plain", "ecu-secoc", "ecu-cansec", "attacker"):
            self.bus.attach(BusNode(name))
        self.zc = self.bus.attach(BusNode("zc"))
        self.s1_tx = [SecOcChannel(_key(seed, f"secoc{i}"), PROFILE_1) for i in range(8)]
        self.s1_rx = [SecOcChannel(_key(seed, f"secoc{i}"), PROFILE_1) for i in range(8)]
        self.zc_port, self.cc_port = MacsecPort("zc"), MacsecPort("cc")
        MkaSession(_key(seed, "backbone-cak"), [self.zc_port, self.cc_port]).distribute_sak()
        self.s2_ecu = [MacsecPort(f"ecu{i}") for i in range(S2_STREAMS)]
        self.s2_cc = [MacsecPort("cc") for _ in range(S2_STREAMS)]
        for i in range(S2_STREAMS):
            MkaSession(_key(seed, f"s2-cak{i}"), [self.s2_ecu[i], self.s2_cc[i]]).distribute_sak()
        self.s3_tx = [CansecZone(_key(seed, f"cansec{i}")) for i in range(len(S3_IDS))]
        self.s3_rx = [CansecZone(_key(seed, f"cansec{i}")) for i in range(len(S3_IDS))]
        self.last_s1_wire: dict[int, bytes] = {}
        self.last_s3: dict[int, object] = {}
        for cycle in range(WARMUP_CYCLES):
            self.run_cycle(cycle)

    def step(self, i: int) -> Step:
        return self.run_cycle(WARMUP_CYCLES + i)

    def run_cycle(self, cycle: int) -> Step:
        inputs = cycle_inputs(self.seed, cycle)
        sim = self.bus.sim
        sim.advance_to(max(sim.now, cycle * CYCLE_S))
        # (kind, stream, payload); an attack PDU expects None (rejected).
        expected: list[tuple[str, int, bytes | None]] = []
        self.bus.send_batch("ecu-plain", [CanFrame(PLAIN_IDS[i], payload)
                                          for i, payload in inputs["plain"]])
        for i, payload, attack in inputs["s1"]:
            wire = self.s1_tx[i].secure(S1_IDS[i], payload).wire_payload(PROFILE_1)
            self.bus.send_batch("ecu-secoc", [CanFrame(S1_IDS[i], wire[:8]),
                                              CanFrame(S1_IDS[i], wire[8:])])
            expected.append(("s1", i, payload))
            if attack:
                bad = (_flip_last(wire) if attack == "forge" or i not in self.last_s1_wire
                       else self.last_s1_wire[i])
                self.bus.send_batch("attacker", [CanFrame(S1_IDS[i], bad[:8]),
                                                 CanFrame(S1_IDS[i], bad[8:])])
                expected.append(("s1", i, None))
            self.last_s1_wire[i] = wire
        s3_sent: dict[int, list] = {}
        for i, payload, attack in inputs["s3"]:
            secured = self.s3_tx[i].protect(CanXlFrame(S3_IDS[i], payload))
            self.bus.send("ecu-cansec", secured.frame)
            s3_sent.setdefault(S3_IDS[i], []).append(secured)
            expected.append(("s3", i, payload))
            if attack:
                bad = (replace(secured, icv=_flip_last(secured.icv))
                       if attack == "forge" or i not in self.last_s3 else self.last_s3[i])
                self.bus.send("attacker", bad.frame)
                s3_sent[S3_IDS[i]].append(bad)
                expected.append(("s3", i, None))
            self.last_s3[i] = secured
        self.bus.run_batch()
        received = self._zone_controller(s3_sent)
        received += self._s2(inputs, expected)
        ok = len(received) == len(expected) + len(inputs["plain"])
        material = [cycle]
        plain = dict(inputs["plain"])
        for kind, stream, delivered in received:
            material.append((kind, stream, delivered.hex() if delivered else None))
            if kind == "plain":
                ok = ok and delivered == plain[stream]
        verdicts = [entry for entry in received if entry[0] != "plain"]
        ok = ok and len(verdicts) == len(expected) and all(
            got[:2] == want[:2] and got[2] == want[2]
            for got, want in zip(sorted(verdicts, key=_order), sorted(expected, key=_order)))
        self.bus.delivered.clear()
        for node in self.bus.nodes.values():
            node.received.clear()
        return Step([ok], repr(material).encode())

    def _zone_controller(self, s3_sent: dict[int, list]) -> list:
        """Forward S1 segments over MACsec, verify S3 frames, read plain frames."""
        received = []
        segments: dict[int, list[bytes]] = {}
        for record in self.zc.received:
            frame = record.frame
            if isinstance(frame, CanXlFrame):
                stream = S3_IDS.index(frame.priority_id)
                secured = s3_sent[frame.priority_id].pop(0)
                received.append(("s3", stream, self.s3_rx[stream].verify(secured)))
            elif frame.can_id in S1_IDS:
                parts = segments.setdefault(frame.can_id, [])
                parts.append(frame.payload)
                if len(parts) == 2:
                    wire = b"".join(parts)
                    parts.clear()
                    stream = S1_IDS.index(frame.can_id)
                    received.append(("s1", stream, self._central_s1(stream, wire)))
            else:
                received.append(("plain", PLAIN_IDS.index(frame.can_id), frame.payload))
        return received

    def _central_s1(self, stream: int, wire: bytes) -> bytes | None:
        recovered = self.cc_port.validate(self.zc_port.protect(wire))
        if recovered is None:
            return None
        body, fv, mac = recovered[:8], recovered[8], recovered[9:]
        pdu = SecuredPdu(S1_IDS[stream], body, fv, mac)
        return body if self.s1_rx[stream].verify(pdu) else None

    def _s2(self, inputs: dict, expected: list) -> list:
        received = []
        for i, payload, attack in inputs["s2"]:
            frame = self.s2_ecu[i].protect(payload)
            received.append(("s2", i, self.s2_cc[i].validate(frame)))
            expected.append(("s2", i, payload))
            if attack:
                bad = replace(frame, icv=_flip_last(frame.icv)) if attack == "forge" else frame
                received.append(("s2", i, self.s2_cc[i].validate(bad)))
                expected.append(("s2", i, None))
        return received


def _order(entry: tuple) -> tuple:
    kind, stream, payload = entry
    return (kind, stream, payload is None)


def build(seed: int) -> World:
    return World(seed)
