"""SDV component reconfiguration with zero-trust mutual authentication
(paper §IV-A, Fig. 7).

"If some control unit fails, software may have to be placed on other
components, and it needs to be ensured that the software and new
hardware are fully compatible ... authentication is essential."

The model: hardware platforms and software components are SSI wallets;
their *vendors* issue

* ``HardwarePlatformCredential`` — attesting a platform's type and
  capabilities;
* ``SoftwareReleaseCredential`` — attesting a software release and the
  platform types it is approved for.

:class:`ReconfigurationController` authorizes a placement only after
**mutual** verification: the software's release credential chains to a
trusted anchor *and* names the target platform type; the hardware's
platform credential chains to a trusted anchor. This is the zero-trust
check of [29]: neither side is trusted by position, only by credential.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ssi.trust import TrustPolicy
from repro.ssi.wallet import Wallet

__all__ = [
    "HW_CREDENTIAL",
    "SW_CREDENTIAL",
    "PlacementDecision",
    "ReconfigurationController",
]

HW_CREDENTIAL = "HardwarePlatformCredential"
SW_CREDENTIAL = "SoftwareReleaseCredential"


@dataclass(frozen=True)
class PlacementDecision:
    """Outcome of a placement authorization."""

    authorized: bool
    software: str
    hardware: str
    reason: str
    verification_steps: int


class ReconfigurationController:
    """Authorizes software placements under a trust policy.

    Args:
        policy: trust policy with anchors for HW and SW credential types.
    """

    def __init__(self, policy: TrustPolicy) -> None:
        self.policy = policy
        self.placements: dict[str, str] = {}  # software did -> hardware did
        self.audit_log: list[PlacementDecision] = []

    def authorize_placement(self, software: Wallet, hardware: Wallet, *,
                            now: float) -> PlacementDecision:
        """Mutually authenticate and check compatibility."""
        steps = 0

        def deny(reason: str) -> PlacementDecision:
            decision = PlacementDecision(False, str(software.did),
                                         str(hardware.did), reason, steps)
            self.audit_log.append(decision)
            return decision

        sw_creds = software.find(SW_CREDENTIAL)
        if not sw_creds:
            return deny("software has no release credential")
        hw_creds = hardware.find(HW_CREDENTIAL)
        if not hw_creds:
            return deny("hardware has no platform credential")

        # Holder binding: each side proves key possession over a fresh
        # challenge (the mutual-authentication half of zero trust), and
        # its credential is checked against the anchor policy.  A failed
        # presentation denies at once; an untrusted issuer only after
        # both presentations held.
        trust = []
        for wallet, ctype in ((software, SW_CREDENTIAL), (hardware, HW_CREDENTIAL)):
            challenge = wallet.new_challenge(f"placement:{now}")
            presentation = wallet.present([ctype], challenge)
            steps += 1
            result = self.policy.verify_presentation(presentation, now=now,
                                                     expected_challenge=challenge)
            if not result and not result.untrusted:
                return deny(f"{wallet.did} presentation failed: {result.reason}")
            trust.append((presentation.credentials[0], result))
        (sw_cred, sw_trust), (hw_cred, hw_trust) = trust

        steps += 1
        if not sw_trust:
            return deny(f"software credential untrusted: {sw_trust.reason}")
        steps += 1
        if not hw_trust:
            return deny(f"hardware credential untrusted: {hw_trust.reason}")

        # Compatibility: the release must approve the platform type.
        steps += 1
        platform_type = hw_cred.claims.get("platformType")
        approved = sw_cred.claims.get("approvedPlatforms", [])
        if platform_type not in approved:
            return deny(f"platform {platform_type!r} not approved "
                        f"(release approves {approved})")

        self.placements[str(software.did)] = str(hardware.did)
        decision = PlacementDecision(True, str(software.did), str(hardware.did),
                                     "ok", steps)
        self.audit_log.append(decision)
        return decision

    def failover(self, software: Wallet, candidates: list[Wallet], *,
                 now: float) -> PlacementDecision:
        """Re-place ``software`` on the first authorized candidate.

        The §IV-A failover scenario: a control unit fails and the
        software must move — but only onto compatible, authenticated
        hardware. Returns the last (failed) decision if none qualifies.
        """
        if not candidates:
            raise ValueError("failover needs at least one candidate")
        decision = PlacementDecision(False, str(software.did), "-",
                                     "no candidates", 0)
        for candidate in candidates:
            decision = self.authorize_placement(software, candidate, now=now)
            if decision.authorized:
                return decision
        return decision
