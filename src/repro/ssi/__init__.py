"""Software & platform layer (paper §IV, Fig. 7): self-sovereign identity
for software-defined vehicles.

* :mod:`repro.ssi.did` / :mod:`repro.ssi.registry` — DIDs, DID
  documents, and the immutable verifiable data registry.
* :mod:`repro.ssi.vc` / :mod:`repro.ssi.wallet` — verifiable
  credentials, presentations, and actor wallets.
* :mod:`repro.ssi.trust` — multi-anchor trust policies with
  accreditation chains (the "multiple trust anchors" requirement).
* :mod:`repro.ssi.sdv` — zero-trust component reconfiguration (§IV-A).
* :mod:`repro.ssi.documents` — signed/linked/encrypted evidence data (§IV-B).
* :mod:`repro.ssi.charging` — plug-and-charge, ISO 15118 PKI vs SSI (§IV-C).
"""

from repro.ssi.charging import (
    CHARGING_CONTRACT,
    SsiChargingFlow,
)
from repro.ssi.did import KeyPair
from repro.ssi.documents import DocumentStore, EncryptedEnvelope, SignedDocument
from repro.ssi.registry import VerifiableDataRegistry
from repro.ssi.sdv import (
    HW_CREDENTIAL,
    SW_CREDENTIAL,
    ReconfigurationController,
)
from repro.ssi.trust import TrustPolicy
from repro.ssi.vc import VerifiablePresentation, VerificationResult
from repro.ssi.wallet import Wallet

__all__ = [
    "KeyPair",
    "VerifiableDataRegistry",
    "VerifiablePresentation",
    "VerificationResult",
    "Wallet",
    "TrustPolicy",
    "ReconfigurationController",
    "HW_CREDENTIAL",
    "SW_CREDENTIAL",
    "SignedDocument",
    "DocumentStore",
    "EncryptedEnvelope",
    "SsiChargingFlow",
    "CHARGING_CONTRACT",
]
