"""``identity-trust``: SSI transactions in the Fig. 7 world at fleet size.

The world: 3 vendors (one rogue), 4 eMSPs (charging contract
providers), 32 EVs with charging contracts, 8 ECUs with hardware
credentials and 16 apps with software credentials, a quarter of them
issued by the rogue vendor.  One op is one transaction, drawn from
blocks of 20 with a fixed mix:

* 9 online ``SsiChargingFlow.authorize``;
* 2 offline authorize;
* 7 ``ReconfigurationController.authorize_placement`` (rogue apps and
  incompatible platforms must be denied);
* 1 ``EncryptedEnvelope`` seal + open;
* 1 ``Wallet.rotate_keys``, then an authorization under the new key.

The mix covers both verify-heavy and sign/keygen-heavy uses of the
same layer.
"""

from __future__ import annotations

import hashlib
import random

from harness import Step

from repro.crypto import x25519_base
from repro.ssi import (CHARGING_CONTRACT, HW_CREDENTIAL, SW_CREDENTIAL,
                       EncryptedEnvelope, ReconfigurationController,
                       SsiChargingFlow, TrustPolicy, VerifiableDataRegistry,
                       Wallet)

NAME = "identity-trust"
DIGEST_STEPS = 40
WARMUP_OPS = 5
NOW = 1_750_000_000.0
BLOCK = (["online"] * 9 + ["offline"] * 2 + ["placement"] * 7
         + ["envelope", "rotate"])
PLATFORMS = ("adas-gen3", "body-gen2", "infotainment-gen1")
N_EMSPS, N_EVS, N_ECUS, N_APPS = 4, 32, 8, 16


def world_inputs(seed: int) -> dict:
    """Who holds what: platform types, app approvals, rogue apps, tariffs."""
    rng = random.Random(f"identity-trust:{seed}:world")
    return {
        "ecu_platform": [rng.choice(PLATFORMS) for _ in range(N_ECUS)],
        "app_approved": [sorted(rng.sample(PLATFORMS, rng.randint(1, 2)))
                         for _ in range(N_APPS)],
        "rogue_apps": sorted(rng.sample(range(N_APPS), N_APPS // 4)),
        "tariffs": [rng.choice(("standard", "fleet", "night")) for _ in range(N_EVS)],
    }


def op_inputs(seed: int, index: int) -> dict:
    """The kind and the actors of transaction ``index``."""
    block, slot = divmod(index, len(BLOCK))
    kinds = list(BLOCK)
    random.Random(f"identity-trust:{seed}:block:{block}").shuffle(kinds)
    rng = random.Random(f"identity-trust:{seed}:op:{index}")
    return {"kind": kinds[slot], "ev": rng.randrange(N_EVS),
            "app": rng.randrange(N_APPS), "ecu": rng.randrange(N_ECUS),
            "payload": rng.randbytes(rng.randint(64, 256))}


class World:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.inputs = world_inputs(seed)
        registry = VerifiableDataRegistry()
        self.registry = registry
        policy = TrustPolicy(registry)
        self.flow = SsiChargingFlow(registry, policy)
        self.controller = ReconfigurationController(policy)

        def wallet(name: str) -> Wallet:
            return Wallet.create(f"{name}-s{seed}", registry)

        hw_vendor, sw_vendor, rogue = (wallet(n) for n in ("hw-vendor", "sw-vendor",
                                                           "rogue-vendor"))
        policy.add_anchor(HW_CREDENTIAL, str(hw_vendor.did))
        policy.add_anchor(SW_CREDENTIAL, str(sw_vendor.did))
        emsps = [wallet(f"emsp{i}") for i in range(N_EMSPS)]
        for emsp in emsps:
            policy.add_anchor(CHARGING_CONTRACT, str(emsp.did))
        self.evs = [wallet(f"ev{i}") for i in range(N_EVS)]
        for i, ev in enumerate(self.evs):
            self.flow.subscribe(ev, emsps[i % N_EMSPS], now=NOW,
                                tariff=self.inputs["tariffs"][i])
        self.flow.cache_for_offline([str(w.did) for w in self.evs + emsps])
        self.ecus = [wallet(f"ecu{i}") for i in range(N_ECUS)]
        for ecu, platform in zip(self.ecus, self.inputs["ecu_platform"]):
            ecu.store(hw_vendor.issue(credential_type=HW_CREDENTIAL, subject=ecu.did,
                                      claims={"platformType": platform}, issued_at=NOW))
        self.apps = [wallet(f"app{i}") for i in range(N_APPS)]
        for i, app in enumerate(self.apps):
            issuer = rogue if i in self.inputs["rogue_apps"] else sw_vendor
            app.store(issuer.issue(credential_type=SW_CREDENTIAL, subject=app.did,
                                   claims={"approvedPlatforms": self.inputs["app_approved"][i]},
                                   issued_at=NOW))
        self.backend_secret = hashlib.sha256(f"identity-trust:{seed}:backend".encode()).digest()
        self.backend_public = x25519_base(self.backend_secret)
        for index in range(WARMUP_OPS):
            self.transaction(index)

    def step(self, i: int) -> Step:
        return self.transaction(WARMUP_OPS + i)

    def transaction(self, index: int) -> Step:
        op = op_inputs(self.seed, index)
        kind = op["kind"]
        now = NOW + 60.0 + index
        ev = self.evs[op["ev"]]
        if kind == "envelope":
            sender = self.ecus[op["ecu"]]
            sealed = EncryptedEnvelope.seal(op["payload"],
                                            recipient_x25519_public=self.backend_public,
                                            sender_signing_key=sender.keypair,
                                            seed_label=f"{self.seed}:{index}")
            opened = sealed.open(recipient_x25519_secret=self.backend_secret,
                                 sender_ed25519_public=sender.keypair.public)
            ok = opened == op["payload"]
            return Step([ok], repr((index, kind, ok, sealed.tag.hex())).encode())
        if kind == "placement":
            app = op["app"]
            decision = self.controller.authorize_placement(
                self.apps[app], self.ecus[op["ecu"]], now=now)
            expected = (app not in self.inputs["rogue_apps"]
                        and self.inputs["ecu_platform"][op["ecu"]]
                        in self.inputs["app_approved"][app])
            return Step([decision.authorized == expected],
                        repr((index, kind, decision.authorized, decision.reason)).encode())
        if kind == "rotate":
            ev.rotate_keys(self.registry)
        result = self.flow.authorize(ev, now=now, offline=kind == "offline")
        return Step([result.authorized and result.reason == "ok"],
                    repr((index, kind, result.authorized, result.reason)).encode())


def build(seed: int) -> World:
    return World(seed)
