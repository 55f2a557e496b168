"""Cross-layer security analyzer (paper §VIII).

The paper's closing argument is that autonomous-system security must be
*holistic and multi-layered*: defenses at different layers only work in
synergy, attacks must be detectable early, and responses must span layers.
This module implements that argument as an executable analysis:

* :class:`LayeredSecurityAnalyzer` evaluates a :class:`ThreatCatalog`
  under a chosen set of enabled defenses and reports which attacks
  survive, per layer;
* :func:`ablate_layers` runs the layered-defense ablation behind the
  EXP-R1 bench — enabling defenses layer by layer and measuring residual
  attack count, demonstrating the "weakest layer dominates" effect.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.layers import LAYER_INFO, Layer
from repro.core.metrics import defense_coverage, layer_synergy
from repro.core.threats import Attack, ThreatCatalog

__all__ = ["LayerAssessment", "SecurityAssessment", "LayeredSecurityAnalyzer", "ablate_layers"]


@dataclass(frozen=True)
class LayerAssessment:
    """Assessment of one layer: attacks, enabled defenses, residual risk."""

    layer: Layer
    total_attacks: int
    covered_attacks: int
    residual_attacks: tuple[str, ...]

    @property
    def coverage(self) -> float:
        if not self.total_attacks:
            return 1.0
        return self.covered_attacks / self.total_attacks


@dataclass(frozen=True)
class SecurityAssessment:
    """Whole-system assessment across all layers."""

    per_layer: dict[Layer, LayerAssessment]
    overall_coverage: float
    weakest_layer: Layer
    residual_attacks: tuple[str, ...]


class LayeredSecurityAnalyzer:
    """Evaluates defense configurations against a threat catalog."""

    def __init__(self, catalog: ThreatCatalog) -> None:
        self.catalog = catalog

    def assess(self, enabled_defenses: set[str] | None = None) -> SecurityAssessment:
        """Assess the system with the given defenses enabled (None = all)."""
        per_layer: dict[Layer, LayerAssessment] = {}
        residual_all: list[str] = []
        for layer in Layer:
            attacks = self.catalog.attacks_on_layer(layer)
            defenses = [
                d for name, d in self.catalog.defenses.items()
                if (enabled_defenses is None or name in enabled_defenses)
            ]
            residual = [
                a.name for a in attacks if not any(d.covers(a) for d in defenses)
            ]
            residual_all.extend(residual)
            per_layer[layer] = LayerAssessment(
                layer=layer,
                total_attacks=len(attacks),
                covered_attacks=len(attacks) - len(residual),
                residual_attacks=tuple(residual),
            )
        weakest = min(
            (layer for layer in Layer if per_layer[layer].total_attacks),
            key=lambda l: per_layer[l].coverage,
            default=Layer.PHYSICAL,
        )
        return SecurityAssessment(
            per_layer=per_layer,
            overall_coverage=defense_coverage(self.catalog, enabled_defenses),
            weakest_layer=weakest,
            residual_attacks=tuple(residual_all),
        )

    def synergy_table(self, enabled_defenses: set[str] | None = None) -> list[tuple[str, float]]:
        """(layer title, coverage) rows for reporting."""
        synergy = layer_synergy(self.catalog, enabled_defenses)
        return [(LAYER_INFO[layer].title, synergy[layer]) for layer in Layer]

    def exploitable_by(self, access_difficulty: int,
                       enabled_defenses: set[str] | None = None) -> list[Attack]:
        """Residual attacks mountable by an attacker of bounded capability.

        ``access_difficulty`` is the max :attr:`AccessLevel.difficulty`
        the attacker can obtain (0 = remote-only attacker).
        """
        assessment = self.assess(enabled_defenses)
        residual = set(assessment.residual_attacks)
        return [
            attack for name, attack in self.catalog.attacks.items()
            if name in residual and attack.access.difficulty <= access_difficulty
        ]


def ablate_layers(catalog: ThreatCatalog,
                  order: list[Layer] | None = None) -> list[tuple[str, int, float]]:
    """Enable defenses one layer at a time; report residual attacks after each.

    Returns rows of ``(layer title, residual attack count, coverage)`` —
    the data series behind the EXP-R1 "defense-in-depth" bench.
    """
    if order is None:
        order = list(Layer)
    analyzer = LayeredSecurityAnalyzer(catalog)
    enabled: set[str] = set()
    rows: list[tuple[str, int, float]] = []
    for layer in order:
        enabled |= {d.name for d in catalog.defenses_on_layer(layer)}
        assessment = analyzer.assess(enabled)
        rows.append((
            LAYER_INFO[layer].title,
            len(assessment.residual_attacks),
            assessment.overall_coverage,
        ))
    return rows
