"""Collaboration layer (paper §VII): collaborative perception security and
resource competition.

* :mod:`repro.collab.perception` — ground-truth world, local sensing,
  V2V detection sharing ([47]).
* :mod:`repro.collab.attacks` — external injector vs credentialed
  internal fabricator ([48]).
* :mod:`repro.collab.detection` — authentication, redundancy
  cross-validation, trust scoring (§VII-B).
* :mod:`repro.collab.intersection` — competing-policy intersection game
  with optional regulation (§VII-A).
"""

from repro.collab.attacks import ExternalInjector, InternalFabricator
from repro.collab.detection import SecureCollabFusion
from repro.collab.intersection import IntersectionSim
from repro.collab.perception import (
    CollabVehicle,
    PerceptionWorld,
    WorldObject,
)

__all__ = [
    "WorldObject",
    "CollabVehicle",
    "PerceptionWorld",
    "ExternalInjector",
    "InternalFabricator",
    "SecureCollabFusion",
    "IntersectionSim",
]
