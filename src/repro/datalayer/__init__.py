"""Data layer (paper §V, Fig. 8): cloud telemetry security and privacy.

* :mod:`repro.datalayer.cloud` — cloud service model (endpoints,
  secrets, IAM, buckets).
* :mod:`repro.datalayer.telemetry` — synthetic fleet geolocation data.
* :mod:`repro.datalayer.killchain` — the generic kill-chain engine and
  the six Fig. 8 stages with per-stage mitigations.
* :mod:`repro.datalayer.breach` — the CARIAD-style scenario end to end.
* :mod:`repro.datalayer.privacy` — home inference, re-identification,
  k-anonymity of the leaked traces.
* :mod:`repro.datalayer.surface` — §V-C attack-surface minimization.
"""

from repro.datalayer.breach import build_cariad_service, run_breach
from repro.datalayer.killchain import MITIGATIONS
from repro.datalayer.privacy import reidentification_rate
from repro.datalayer.surface import FeatureSurfaceAnalyzer
from repro.datalayer.telemetry import FleetTelemetryGenerator

__all__ = [
    "FleetTelemetryGenerator",
    "MITIGATIONS",
    "build_cariad_service",
    "run_breach",
    "reidentification_rate",
    "FeatureSurfaceAnalyzer",
]
