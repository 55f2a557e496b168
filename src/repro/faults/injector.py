"""The deterministic fault injector.

:class:`FaultInjector` turns a :class:`~repro.faults.plan.FaultPlan`
into per-opportunity firing decisions with **zero ambient randomness**:
every ``(kind, target)`` pair owns a :mod:`repro.core.rng` stream seeded
from ``faults/<plan>/<kind>/<target>`` and the campaign base seed, so an
identical ``(plan, base seed)`` replays the exact same fault sequence —
the property the chaos CLI's byte-identical-report guarantee rests on.

The no-fault fast path matters: simulators consult the injector on hot
paths (per CAN frame, per ranging exchange), so a ``(kind, target)``
pair with no scheduled specs returns ``False`` after one dict probe —
``benchmarks/bench_faults.py`` pins this below 5% of the CAN per-frame
budget.
"""

from __future__ import annotations

import random
from collections import Counter

import numpy as np

from repro.core.rng import numpy_rng, python_rng
from repro.faults.plan import KIND_LAYER, FaultKind, FaultPlan, FaultSpec
from repro.obs.events import EventKind
from repro.obs.runtime import OBS

__all__ = ["FaultInjector"]


class FaultInjector:
    """Schedule and fire the faults of one plan, deterministically.

    Args:
        plan: the campaign to execute.
        base_seed: shards every per-``(kind, target)`` stream; ``None``
            uses the ambient ``REPRO_BASE_SEED`` default like the rest
            of :mod:`repro.core.rng`.
    """

    def __init__(self, plan: FaultPlan, *, base_seed: int | None = None) -> None:
        self.plan = plan
        self.base_seed = base_seed
        self._fired: Counter[FaultKind] = Counter()
        self._specs: dict[tuple[FaultKind, str], tuple[FaultSpec, ...]] = {}
        for spec in plan.specs:
            key = (spec.kind, spec.target)
            self._specs[key] = self._specs.get(key, ()) + (spec,)
        self._streams: dict[tuple[FaultKind, str], random.Random] = {}
        self._noise: dict[tuple[FaultKind, str], np.random.Generator] = {}

    # -- streams -------------------------------------------------------------

    def _label(self, kind: FaultKind, target: str) -> str:
        return f"faults/{self.plan.name}/{kind.value}/{target}"

    def _stream(self, kind: FaultKind, target: str) -> random.Random:
        key = (kind, target)
        stream = self._streams.get(key)
        if stream is None:
            stream = python_rng(self._label(kind, target), self.base_seed)
            self._streams[key] = stream
        return stream

    # -- firing decisions ----------------------------------------------------

    def fires(self, kind: FaultKind, target: str, t: float) -> bool:
        """Decide (and count) whether the fault fires at instant ``t``.

        One stream draw per armed opportunity — retrying an operation
        at the same instant re-rolls, which is exactly how a retransmit
        can slip through a probabilistic frame-drop window.
        """
        specs = self._specs.get((kind, target))
        if specs is None:
            return False  # the no-fault fast path: one dict probe
        for spec in specs:
            if spec.start <= t < spec.end:
                break
        else:
            return False
        if spec.probability < 1.0 and \
                self._stream(kind, target).random() >= spec.probability:
            return False
        self._fired[kind] += 1
        if OBS.enabled:
            OBS.count("faults.injected")
            OBS.count(f"faults.injected.{kind.value}")
            OBS.emit(EventKind.FAULT_INJECTED, KIND_LAYER[kind], target,
                     f"{kind.value} fired (magnitude {spec.magnitude:g})",
                     t=t, kind=kind.value, magnitude=spec.magnitude)
        return True

    def magnitude(self, kind: FaultKind, target: str, t: float) -> float:
        """The first armed spec's magnitude at ``t`` (0.0 when disarmed)."""
        for spec in self._specs.get((kind, target), ()):
            if spec.active(t):
                return spec.magnitude
        return 0.0

    # -- fault payloads ------------------------------------------------------

    def corruption_noise(self, kind: FaultKind, target: str,
                         n: int, magnitude: float) -> np.ndarray:
        """A burst of Gaussian sample noise from the pair's noise stream."""
        key = (kind, target)
        stream = self._noise.get(key)
        if stream is None:
            stream = numpy_rng(self._label(kind, target) + "/noise",
                               self.base_seed)
            self._noise[key] = stream
        return stream.normal(0.0, magnitude, size=n)

    # -- bookkeeping ---------------------------------------------------------

    @property
    def count(self) -> int:
        return self._fired.total()

    def count_by_kind(self) -> dict[str, int]:
        """Fired-fault totals keyed by kind value (sorted for stability)."""
        return dict(sorted((kind.value, n) for kind, n in self._fired.items()))
