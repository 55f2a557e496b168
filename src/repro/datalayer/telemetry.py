"""Fleet telemetry generation (paper §V-A).

The breached data was "9.5 terabytes of vehicle telemetry ... personal
information (name, email), information about the vehicle, and most
problematic geolocation data going back several months".  This module
generates a synthetic fleet with exactly that structure — each vehicle
has an owner (PII), a home and a work location, and produces daily
commute traces — so the privacy analysis (:mod:`repro.datalayer.privacy`)
can quantify what leaking it means.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.core.rng import numpy_rng

__all__ = ["VehicleProfile", "TelemetryRecord", "FleetTelemetryGenerator"]


@dataclass(frozen=True)
class VehicleProfile:
    """A vehicle and its owner's PII + routine locations."""

    vin: str
    owner_name: str
    owner_email: str
    home: tuple[float, float]      # (lat, lon)
    work: tuple[float, float]
    sensitive: bool = False        # e.g. intelligence-linked per the incident


@dataclass(frozen=True)
class TelemetryRecord:
    """One geolocation sample as stored in the backend.

    ``lat`` and ``lon`` are Python ``float``s, never ``numpy.float64``:
    the privacy analysis rounds every coordinate at least once, and
    ``round`` on a numpy scalar runs numpy's ``__round__`` at several
    times the cost.  ``float`` of a ``numpy.float64`` is exact, so the
    stored values are the same doubles either way.
    """

    vin: str
    owner_name: str
    owner_email: str
    timestamp: float               # epoch seconds
    lat: float
    lon: float

    def anonymized(self) -> "TelemetryRecord":
        """PII stripped (the naive mitigation the privacy bench defeats);
        the VIN becomes a 64-bit keyed digest, stable across processes."""
        digest = hashlib.blake2b(self.vin.encode(), digest_size=8,
                                 key=b"repro.datalayer/pseudonym").hexdigest()
        return TelemetryRecord(
            vin=f"anon-{digest}",
            owner_name="", owner_email="",
            timestamp=self.timestamp, lat=self.lat, lon=self.lon,
        )

    def coarsened(self, decimals: int) -> "TelemetryRecord":
        """Location precision reduced to ``decimals`` decimal degrees."""
        return TelemetryRecord(
            vin=self.vin, owner_name=self.owner_name, owner_email=self.owner_email,
            timestamp=self.timestamp,
            lat=round(self.lat, decimals), lon=round(self.lon, decimals),
        )


class FleetTelemetryGenerator:
    """Deterministic synthetic fleet.

    Geography: a ~0.5° x 0.5° metro area; homes and workplaces are drawn
    uniformly; each day produces samples parked at home (night), at work
    (day), and in transit.
    """

    DAY_S = 86_400.0

    def __init__(self, n_vehicles: int = 50, *, seed_label: str = "fleet",
                 sensitive_fraction: float = 0.05) -> None:
        if n_vehicles < 1:
            raise ValueError("need at least one vehicle")
        if not 0.0 <= sensitive_fraction <= 1.0:
            raise ValueError("sensitive_fraction must be in [0, 1]")
        self._rng = numpy_rng(seed_label)
        self.vehicles = [
            self._make_vehicle(i, sensitive_fraction) for i in range(n_vehicles)
        ]

    def _make_vehicle(self, index: int, sensitive_fraction: float) -> VehicleProfile:
        base_lat, base_lon = 48.10, 11.50  # a Munich-like metro
        home = (base_lat + self._rng.uniform(0, 0.5), base_lon + self._rng.uniform(0, 0.5))
        work = (base_lat + self._rng.uniform(0, 0.5), base_lon + self._rng.uniform(0, 0.5))
        return VehicleProfile(
            vin=f"WVW{index:08d}",
            owner_name=f"owner-{index}",
            owner_email=f"owner{index}@example.org",
            home=home,
            work=work,
            sensitive=self._rng.random() < sensitive_fraction,
        )

    def generate(self, days: int = 30, samples_per_day: int = 8,
                 start_time: float = 1_735_000_000.0) -> list[TelemetryRecord]:
        """Telemetry for the whole fleet over ``days`` days."""
        if days < 1 or samples_per_day < 3:
            raise ValueError("need >= 1 day and >= 3 samples per day")
        records: list[TelemetryRecord] = []
        for vehicle in self.vehicles:
            for day in range(days):
                day_start = start_time + day * self.DAY_S
                for sample in range(samples_per_day):
                    hour = 24.0 * sample / samples_per_day
                    timestamp = day_start + hour * 3600.0
                    if hour < 7 or hour >= 20:
                        lat, lon = vehicle.home
                    elif 9 <= hour < 17:
                        lat, lon = vehicle.work
                    else:  # commuting: a point between home and work
                        t = self._rng.uniform(0.2, 0.8)
                        lat = vehicle.home[0] * (1 - t) + vehicle.work[0] * t
                        lon = vehicle.home[1] * (1 - t) + vehicle.work[1] * t
                    # GPS jitter ~10 m, as Python floats (see TelemetryRecord)
                    noise = self._rng.normal(0.0, 1e-4, size=2).tolist()
                    records.append(TelemetryRecord(
                        vin=vehicle.vin,
                        owner_name=vehicle.owner_name,
                        owner_email=vehicle.owner_email,
                        timestamp=timestamp,
                        lat=lat + noise[0],
                        lon=lon + noise[1],
                    ))
        return records
