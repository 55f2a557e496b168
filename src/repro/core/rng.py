"""Seeded randomness utilities.

Every stochastic experiment in the reproduction draws from an explicit
:class:`numpy.random.Generator` or :class:`random.Random` created here, so
all benchmark tables are reproducible run-to-run. Seeds are derived by
hashing a textual label, which keeps independent subsystems decorrelated
without manual seed bookkeeping.
"""

from __future__ import annotations

import hashlib
import os
import random
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = ["derive_seed", "numpy_rng", "python_rng"]


def _default_base_seed() -> int:
    """The run-wide base seed (``REPRO_BASE_SEED``, default 0).

    ``python -m repro run --base-seed N`` exports this around each
    experiment, so a run can re-shard every derived stream without
    touching any call site.
    """
    try:
        return int(os.environ.get("REPRO_BASE_SEED", "0"))
    except ValueError:
        return 0


def derive_seed(label: str, base_seed: int | None = None) -> int:
    """Derive a stable 63-bit seed from a label and a base seed.

    With ``base_seed=None`` the ambient :func:`_default_base_seed` is
    used — identical to the historical default of 0 unless a run set
    ``REPRO_BASE_SEED``.
    """
    if base_seed is None:
        base_seed = _default_base_seed()
    digest = hashlib.sha256(f"{base_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def numpy_rng(label: str, base_seed: int | None = None) -> np.random.Generator:
    """A numpy Generator seeded deterministically from ``label``.

    numpy is imported here, not at module level, so a caller that needs
    only :func:`python_rng` never loads it.
    """
    import numpy as np

    return np.random.default_rng(derive_seed(label, base_seed))


def python_rng(label: str, base_seed: int | None = None) -> random.Random:
    """A stdlib Random seeded deterministically from ``label``."""
    return random.Random(derive_seed(label, base_seed))
