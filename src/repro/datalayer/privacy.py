"""Geolocation privacy analysis: re-identification from leaked traces
(paper §V-A: "most problematic geolocation data going back several
months in time").

The analysis makes the breach's privacy damage quantitative:

* :func:`infer_home_locations` — the classic attack: a vehicle's most
  frequent night-time location is its owner's home;
* :func:`reidentification_rate` — with a public directory of (person,
  home address) pairs, what fraction of *anonymized* traces can be
  re-linked to a person via the inferred home?
* :func:`location_k_anonymity` — how many vehicles share each coarsened
  home cell; the coarsening ablation shows the privacy/utility knob
  (§V's data-minimization lesson).
"""

from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np

from repro.datalayer.telemetry import TelemetryRecord, VehicleProfile

__all__ = [
    "infer_home_locations",
    "reidentification_rate",
    "location_k_anonymity",
    "trajectory_uniqueness",
    "geo_indistinguishable",
    "utility_loss_m",
]

_NIGHT_START_H = 20.0
_NIGHT_END_H = 7.0


def _is_night(timestamp: float) -> bool:
    hour = (timestamp % 86_400.0) / 3600.0
    return hour >= _NIGHT_START_H or hour < _NIGHT_END_H


def infer_home_locations(records: list[TelemetryRecord], *,
                         cell_decimals: int = 3) -> dict[str, tuple[float, float]]:
    """Infer each VIN's home as its modal night-time location cell.

    ``cell_decimals`` controls the grid (3 decimals ~ 110 m cells).
    Returns vin -> (lat, lon) cell centre.
    """
    night_cells: dict[str, Counter] = defaultdict(Counter)
    for record in records:
        if _is_night(record.timestamp):
            cell = (round(record.lat, cell_decimals), round(record.lon, cell_decimals))
            night_cells[record.vin][cell] += 1
    return {
        vin: cells.most_common(1)[0][0]
        for vin, cells in night_cells.items() if cells
    }


def reidentification_rate(anonymized: list[TelemetryRecord],
                          directory: list[VehicleProfile], *,
                          match_radius_deg: float = 0.002,
                          cell_decimals: int = 3) -> float:
    """Fraction of anonymized VINs re-linked to a unique directory entry.

    The attacker infers homes from the anonymized traces and matches
    each against the public directory of home addresses; a link counts
    only when exactly one person lives within ``match_radius_deg``.
    """
    if not directory:
        raise ValueError("directory must not be empty")
    homes = infer_home_locations(anonymized, cell_decimals=cell_decimals)
    if not homes:
        return 0.0
    linked = 0
    for inferred in homes.values():
        matches = [
            profile for profile in directory
            if (abs(profile.home[0] - inferred[0]) <= match_radius_deg
                and abs(profile.home[1] - inferred[1]) <= match_radius_deg)
        ]
        if len(matches) == 1:
            linked += 1
    return linked / len(homes)


def geo_indistinguishable(records: list[TelemetryRecord], *,
                          epsilon_per_km: float = 2.0,
                          seed: int = 0) -> list[TelemetryRecord]:
    """Planar-Laplace location perturbation (geo-indistinguishability).

    The principled alternative to grid coarsening: each point is moved
    by 2-D Laplace noise with privacy parameter ``epsilon_per_km``
    (smaller = noisier = more private). The noise radius follows a
    Gamma(2, 1/eps) distribution; the angle is uniform — the standard
    planar Laplace mechanism. Degrees are converted at ~111 km/degree.
    """
    if epsilon_per_km <= 0:
        raise ValueError("epsilon must be positive")
    from repro.core.rng import numpy_rng

    rng = numpy_rng(f"geo-ind:{seed}")
    km_per_degree = 111.0
    noisy = []
    for record in records:
        radius_km = float(rng.gamma(2.0, 1.0 / epsilon_per_km))
        angle = float(rng.uniform(0.0, 2.0 * np.pi))
        dlat = radius_km * np.cos(angle) / km_per_degree
        dlon = radius_km * np.sin(angle) / km_per_degree
        noisy.append(TelemetryRecord(
            vin=record.vin, owner_name=record.owner_name,
            owner_email=record.owner_email, timestamp=record.timestamp,
            lat=float(record.lat + dlat), lon=float(record.lon + dlon),
        ))
    return noisy


def utility_loss_m(original: list[TelemetryRecord],
                   perturbed: list[TelemetryRecord]) -> float:
    """Mean displacement between matched records (metres) — the utility
    side of the privacy/utility trade-off."""
    if len(original) != len(perturbed):
        raise ValueError("record lists must be parallel")
    if not original:
        return 0.0
    metres_per_degree = 111_000.0
    total = 0.0
    for a, b in zip(original, perturbed):
        total += float(np.hypot(a.lat - b.lat, a.lon - b.lon)) * metres_per_degree
    return total / len(original)


def trajectory_uniqueness(records: list[TelemetryRecord], *,
                          n_points: int = 4,
                          cell_decimals: int = 2,
                          time_bin_s: float = 3600.0,
                          trials_per_vehicle: int = 10,
                          seed: int = 0) -> float:
    """Fraction of vehicles uniquely identified by ``n_points`` random
    spatio-temporal points of their trace.

    The de-Montjoye-style mobility-uniqueness measurement, applied to
    the leaked telemetry: an adversary holding a handful of coarse
    (cell, hour) observations of a target checks how many vehicles in
    the corpus are consistent with all of them. High uniqueness means
    the "anonymized" corpus deanonymizes from minimal side knowledge —
    the §V-A national-security concern in quantitative form.
    """
    if n_points < 1 or trials_per_vehicle < 1:
        raise ValueError("need at least one point and one trial")
    from repro.core.rng import python_rng

    def key(record: TelemetryRecord) -> tuple:
        return (round(record.lat, cell_decimals),
                round(record.lon, cell_decimals),
                int(record.timestamp // time_bin_s))

    by_vehicle: dict[str, set[tuple]] = defaultdict(set)
    for record in records:
        by_vehicle[record.vin].add(key(record))
    if not by_vehicle:
        return 0.0

    rng = python_rng(f"traj-uniq:{seed}")
    unique_hits = 0
    total = 0
    for vin, cells in by_vehicle.items():
        pool = sorted(cells)
        for _ in range(trials_per_vehicle):
            sample = set(rng.sample(pool, min(n_points, len(pool))))
            matches = sum(1 for other_cells in by_vehicle.values()
                          if sample <= other_cells)
            unique_hits += matches == 1
            total += 1
    return unique_hits / total


def location_k_anonymity(records: list[TelemetryRecord], *,
                         cell_decimals: int = 2) -> dict:
    """k-anonymity of inferred homes on a coarsened grid.

    Returns ``{"min_k": ..., "median_k": ..., "fraction_k1": ...}`` —
    ``fraction_k1`` is the share of vehicles that are alone in their
    cell (fully identifiable). Larger cells (< decimals) raise k.
    """
    homes = infer_home_locations(records, cell_decimals=cell_decimals)
    if not homes:
        return {"min_k": 0, "median_k": 0.0, "fraction_k1": 0.0}
    cell_counts = Counter(homes.values())
    ks = [cell_counts[cell] for cell in homes.values()]
    return {
        "min_k": int(min(ks)),
        "median_k": float(np.median(ks)),
        "fraction_k1": sum(1 for k in ks if k == 1) / len(ks),
    }
