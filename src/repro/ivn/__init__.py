"""Network layer (paper §III): in-vehicle networks and their security stacks.

Implements Figs. 3–6 and Table I as executable models:

* :mod:`repro.ivn.frames` — bit-accurate CAN/CAN-FD/CAN-XL/Ethernet sizes.
* :mod:`repro.ivn.bus`, :mod:`repro.ivn.t1s`, :mod:`repro.ivn.ethernet` —
  medium simulators (arbitration, PLCA, switched links).
* :mod:`repro.ivn.topology` — the Fig. 3 zonal architecture.
* :mod:`repro.ivn.secoc` / :mod:`repro.ivn.macsec` /
  :mod:`repro.ivn.cansec` / :mod:`repro.ivn.canal` — the Table I
  protocol implementations with real cryptography.
* :mod:`repro.ivn.scenarios` — S1 / S2a / S2b / S3 comparisons.
* :mod:`repro.ivn.attacks`, :mod:`repro.ivn.ids` — masquerade/replay/DoS
  and the detectors that catch them.
"""

from repro.ivn.attacks import MasqueradeAttacker
from repro.ivn.bus import BusNode, CanBus
from repro.ivn.cansec import CansecZone
from repro.ivn.frames import (
    CanFrame,
    CanXlFrame,
)
from repro.ivn.ids import FrequencyIds, SenderFingerprintIds
from repro.ivn.macsec import MacsecPort, MkaSession
from repro.ivn.scenarios import run_all_scenarios
from repro.ivn.secoc import (
    PROFILE_1,
    SecOcChannel,
    SecuredPdu,
)
from repro.ivn.topology import ZonalArchitecture

__all__ = [
    "CanFrame",
    "CanXlFrame",
    "CanBus",
    "BusNode",
    "ZonalArchitecture",
    "SecOcChannel",
    "SecuredPdu",
    "PROFILE_1",
    "MacsecPort",
    "MkaSession",
    "CansecZone",
    "run_all_scenarios",
    "MasqueradeAttacker",
    "FrequencyIds",
    "SenderFingerprintIds",
]
