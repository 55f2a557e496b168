"""System-of-systems layer (paper §VI, Fig. 9): AD MaaS threat analysis.

* :mod:`repro.sos.model` — SoS hierarchy (levels 0–3) + interfaces.
* :mod:`repro.sos.maas` — the Fig. 9 reference architecture builder.
* :mod:`repro.sos.stride` — STRIDE-per-interface threat enumeration.
* :mod:`repro.sos.cascade` — Monte-Carlo breach-cascade simulation.
* :mod:`repro.sos.responsibility` — stakeholder obligation mapping and
  the gaps the paper attributes to "ambiguous roles".
"""

from repro.sos.cascade import CascadeSimulator
from repro.sos.maas import build_maas_sos
from repro.sos.responsibility import ResponsibilityMatrix
from repro.sos.stride import enumerate_threats, threats_by_level

__all__ = [
    "build_maas_sos",
    "enumerate_threats",
    "threats_by_level",
    "CascadeSimulator",
    "ResponsibilityMatrix",
]
