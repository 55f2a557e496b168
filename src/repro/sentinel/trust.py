"""Time-variant trust: EMA smoothing, weighted-MAX fusion, physics gates.

Each monitored source (ECU, bus, anchor, backend, registry) carries a
:class:`TrustScore` in ``[0, 1]`` that evolves with evidence:

* **fusion** — one tick's detector risks combine as
  ``max(physics, min(1, Σ wᵢ·riskᵢ))``: the weighted sum lets several
  weak probabilistic signals reinforce each other, while a *hard*
  physics gate (impossible ToA, saturated bus) overrides everything —
  no amount of good history argues with physics, so a hard tick also
  crashes the score to ``hard_crash``.
* **EMA smoothing** — the score moves toward ``1 − fused risk`` with
  step ``alpha``: single noisy ticks dent it, sustained evidence moves
  it.
* **phases** — sources start in COLD_START (risk amplified: a stranger
  must earn trust) for the first ``cold_start_obs`` observations, then
  VERIFYING, and reach TRUSTED at ``trusted_at``; TRUSTED sources damp
  risks below ``noise_floor`` (reputation absorbs line noise) but fall
  back to VERIFYING if the score sags.
* **decay** — a tick with no observations at all pulls scores above
  ``ambient`` back toward it: trust is perishable without positive
  reinforcement, but distrust is not forgiven for free.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from enum import Enum

__all__ = ["TrustPhase", "TrustEvent", "TrustScore", "TrustRegistry",
           "DEFAULT_WEIGHTS"]

#: Per-detector fusion weights (weighted-sum arm of the MAX fusion).
DEFAULT_WEIGHTS: dict[str, float] = {
    "can-rate": 1.0,
    "ranging-residual": 1.0,
    "cloud-budget": 0.9,
    "secoc-auth": 0.8,
    "did-resolution": 0.7,
}


class TrustPhase(str, Enum):
    """The time-variant trust lifecycle."""

    COLD_START = "cold-start"
    VERIFYING = "verifying"
    TRUSTED = "trusted"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class TrustEvent:
    """A reportable trust change (phase move or collapse)."""

    t: float
    source: str
    kind: str            # "phase" | "collapse"
    phase: TrustPhase
    score: float

    def to_dict(self) -> dict:
        return {"t": self.t, "source": self.source, "kind": self.kind,
                "phase": self.phase.value, "score": round(self.score, 4)}


class TrustScore:
    """One source's evolving trust."""

    def __init__(self, source: str, *, initial: float = 0.5,
                 alpha: float = 0.35, ambient: float = 0.4,
                 decay_rate: float = 0.05, cold_start_obs: int = 5,
                 cold_start_gain: float = 1.25, trusted_at: float = 0.8,
                 trusted_exit: float = 0.7, noise_floor: float = 0.1,
                 collapse_threshold: float = 0.3,
                 hard_crash: float = 0.05) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if trusted_exit > trusted_at:
            raise ValueError("trusted_exit must not exceed trusted_at")
        self.source = source
        self.score = initial
        self.alpha = alpha
        self.ambient = ambient
        self.decay_rate = decay_rate
        self.cold_start_obs = cold_start_obs
        self.cold_start_gain = cold_start_gain
        self.trusted_at = trusted_at
        self.trusted_exit = trusted_exit
        self.noise_floor = noise_floor
        self.collapse_threshold = collapse_threshold
        self.hard_crash = hard_crash
        self.phase = TrustPhase.COLD_START
        self.observations = 0
        self.min_score = initial
        self.collapsed_t: float | None = None
        self.hard_hits = 0

    def fuse(self, risks: dict[str, float], hard: bool,
             weights: dict[str, float] | None = None) -> float:
        """Weighted-MAX fusion: ``max(physics, min(1, Σ wᵢ·riskᵢ))``."""
        table = weights if weights is not None else DEFAULT_WEIGHTS
        weighted = min(1.0, sum(table.get(name, 0.5) * risk
                                for name, risk in risks.items()))
        return 1.0 if hard else weighted

    def update(self, t: float, risks: dict[str, float], hard: bool, *,
               weights: dict[str, float] | None = None) -> list[TrustEvent]:
        """Apply one tick of evidence; returns reportable trust events."""
        self.observations += 1
        if hard:
            fused = 1.0
        elif risks:
            fused = self.fuse(risks, False, weights)
        else:
            fused = 0.0  # a quiet tick: nothing to fuse
        if self.phase is TrustPhase.COLD_START:
            fused = min(1.0, fused * self.cold_start_gain)
        elif self.phase is TrustPhase.TRUSTED and fused <= self.noise_floor:
            fused = 0.0  # reputation absorbs line noise
        self.score = (1.0 - self.alpha) * self.score + self.alpha * (1.0 - fused)
        if hard:
            self.hard_hits += 1
            self.score = min(self.score, self.hard_crash)
        return self._after_move(t)

    def decay(self, t: float) -> list[TrustEvent]:
        """One tick with no observations: trust is perishable."""
        if self.score > self.ambient:
            self.score = self.score - self.decay_rate * (self.score - self.ambient)
        return self._after_move(t)

    def _after_move(self, t: float) -> list[TrustEvent]:
        events: list[TrustEvent] = []
        if self.score < self.min_score:
            self.min_score = self.score
        if self.collapsed_t is None and self.score < self.collapse_threshold:
            self.collapsed_t = t
            events.append(TrustEvent(t, self.source, "collapse",
                                     self.phase, self.score))
        next_phase = self.phase
        if self.phase is TrustPhase.COLD_START:
            if self.observations >= self.cold_start_obs:
                next_phase = TrustPhase.VERIFYING
        elif self.phase is TrustPhase.VERIFYING:
            if self.score >= self.trusted_at:
                next_phase = TrustPhase.TRUSTED
        elif self.score < self.trusted_exit:
            next_phase = TrustPhase.VERIFYING
        if next_phase is not self.phase:
            self.phase = next_phase
            events.append(TrustEvent(t, self.source, "phase",
                                     next_phase, self.score))
        return events

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "score": round(self.score, 4),
            "minScore": round(self.min_score, 4),
            "phase": self.phase.value,
            "observations": self.observations,
            "hardHits": self.hard_hits,
            "collapsedT": self.collapsed_t,
        }


class TrustRegistry:
    """All monitored sources' trust, plus the shared fusion weights."""

    def __init__(self, *, weights: dict[str, float] | None = None) -> None:
        self.weights = dict(weights) if weights is not None else dict(DEFAULT_WEIGHTS)
        self._scores: dict[str, TrustScore] = {}
        self._names: list[str] = []  # the keys of ``_scores``, sorted

    def get(self, source: str) -> TrustScore:
        score = self._scores.get(source)
        if score is None:
            score = self._scores[source] = TrustScore(source)
            insort(self._names, source)
        return score

    def sources(self) -> list[str]:
        return list(self._names)

    def update(self, t: float, source: str, risks: dict[str, float],
               hard: bool) -> list[TrustEvent]:
        return self.get(source).update(t, risks, hard, weights=self.weights)

    def decay_except(self, t: float, seen: set[str]) -> list[TrustEvent]:
        """Decay every tracked source that produced no evidence this tick."""
        events: list[TrustEvent] = []
        for name in self._names:
            if name not in seen:
                events.extend(self._scores[name].decay(t))
        return events

    def collapsed(self) -> list[str]:
        return sorted(name for name, score in self._scores.items()
                      if score.collapsed_t is not None)

    def to_dict(self) -> list[dict]:
        return [self._scores[name].to_dict() for name in self._names]
