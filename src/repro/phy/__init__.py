"""Physical layer (paper §II): UWB secure ranging, PKES, sensor security.

Implements the Fig. 2 content as a sampled-waveform simulator:

* :mod:`repro.phy.pulses`, :mod:`repro.phy.channel` — UWB signal substrate.
* :mod:`repro.phy.hrp` — HRP mode with STS correlation and receiver
  integrity checks ([4], [8]).
* :mod:`repro.phy.lrp` — LRP mode distance bounding + distance
  commitment + pulse randomization ([5], [6]).
* :mod:`repro.phy.ranging` — SS-TWR / DS-TWR timing algebra.
* :mod:`repro.phy.attacks` / :mod:`repro.phy.defenses` — ghost-peak,
  enlargement, relay attacks and the UWB-ED detector ([13]).
* :mod:`repro.phy.pkes` — keyless entry under three proximity policies.
* :mod:`repro.phy.collision` — collision-avoidance sensor fusion under
  spoofing ([9]-[12]).
"""

from repro.phy.attacks import EnlargementAttack, GhostPeakAttack, RelayAttack
from repro.phy.channel import Channel
from repro.phy.defenses import UwbEdDetector
from repro.phy.hrp import HrpRangingSession, HrpReceiver
from repro.phy.pkes import PkesSystem

__all__ = [
    "Channel",
    "HrpRangingSession",
    "HrpReceiver",
    "GhostPeakAttack",
    "EnlargementAttack",
    "RelayAttack",
    "UwbEdDetector",
    "PkesSystem",
]
