"""Tests for telemetry generation, privacy analysis, and surface minimization."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.datalayer.breach import build_cariad_service
from repro.datalayer.privacy import (
    infer_home_locations,
    location_k_anonymity,
    reidentification_rate,
)
from repro.datalayer.surface import FeatureSurfaceAnalyzer
from repro.datalayer.telemetry import FleetTelemetryGenerator


SRC = str(Path(__file__).resolve().parents[1] / "src")

#: FIG8's privacy analysis (``benchmarks/bench_fig8_killchain.py``),
#: printed with exact rates and every pseudonym.
FIG8_PRIVACY = """\
import json
from repro.datalayer.privacy import reidentification_rate, trajectory_uniqueness
from repro.datalayer.telemetry import FleetTelemetryGenerator

fleet = FleetTelemetryGenerator(40, seed_label="fig8-privacy")
anonymized = [r.anonymized() for r in fleet.generate(days=30)]
print(json.dumps({
    "pseudonyms": sorted({r.vin for r in anonymized}),
    "precise": reidentification_rate(anonymized, fleet.vehicles),
    "coarse": reidentification_rate([r.coarsened(1) for r in anonymized],
                                    fleet.vehicles, cell_decimals=1),
    "uniqueness": trajectory_uniqueness(anonymized, n_points=4,
                                        trials_per_vehicle=5),
}))
"""


@pytest.fixture(scope="module")
def fleet():
    return FleetTelemetryGenerator(30, seed_label="privacy-test")


@pytest.fixture(scope="module")
def records(fleet):
    return fleet.generate(days=14)


class TestTelemetry:
    def test_record_count(self, fleet, records):
        assert len(records) == 30 * 14 * 8

    def test_night_samples_at_home(self, fleet, records):
        vehicle = fleet.vehicles[0]
        night = [r for r in records
                 if r.vin == vehicle.vin and (r.timestamp % 86400) / 3600 < 7]
        assert night
        for record in night:
            assert abs(record.lat - vehicle.home[0]) < 0.01
            assert abs(record.lon - vehicle.home[1]) < 0.01

    def test_deterministic(self):
        a = FleetTelemetryGenerator(5, seed_label="d").generate(days=2)
        b = FleetTelemetryGenerator(5, seed_label="d").generate(days=2)
        assert a == b

    def test_anonymized_strips_pii(self, records):
        anon = records[0].anonymized()
        assert anon.owner_name == "" and anon.owner_email == ""
        assert anon.vin != records[0].vin
        assert anon.lat == records[0].lat

    def test_pseudonyms_do_not_depend_on_the_hash_seed(self):
        # Python salts str hashes per process; under hash seed 4 the old
        # 16-bit ``hash(vin)`` pseudonym merged two of FIG8's 40 vehicles.
        outputs = []
        for hash_seed in ("0", "4"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed,
                   "PYTHONPATH": SRC}
            env.pop("REPRO_BASE_SEED", None)
            result = subprocess.run([sys.executable, "-c", FIG8_PRIVACY],
                                    env=env, capture_output=True, text=True,
                                    timeout=120, check=True)
            outputs.append(json.loads(result.stdout))
        assert outputs[0] == outputs[1]
        assert len(outputs[0]["pseudonyms"]) == 40

    def test_coarsened_rounds_location(self, records):
        coarse = records[0].coarsened(1)
        assert coarse.lat == round(records[0].lat, 1)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            FleetTelemetryGenerator(0)
        with pytest.raises(ValueError):
            FleetTelemetryGenerator(1, sensitive_fraction=2.0)
        with pytest.raises(ValueError):
            FleetTelemetryGenerator(1).generate(days=0)


class TestPrivacy:
    def test_home_inference_recovers_true_homes(self, fleet, records):
        homes = infer_home_locations(records)
        assert len(homes) == 30
        for vehicle in fleet.vehicles:
            inferred = homes[vehicle.vin]
            assert abs(inferred[0] - vehicle.home[0]) < 0.005
            assert abs(inferred[1] - vehicle.home[1]) < 0.005

    def test_anonymization_does_not_stop_reidentification(self, fleet, records):
        # The paper's point: geolocation *is* the identifier.
        anonymized = [r.anonymized() for r in records]
        rate = reidentification_rate(anonymized, fleet.vehicles)
        assert rate > 0.9

    def test_coarsening_reduces_reidentification(self, fleet, records):
        anonymized = [r.anonymized() for r in records]
        precise = reidentification_rate(anonymized, fleet.vehicles)
        coarse_records = [r.anonymized().coarsened(1) for r in records]
        coarse = reidentification_rate(coarse_records, fleet.vehicles,
                                       cell_decimals=1)
        assert coarse < precise

    def test_k_anonymity_improves_with_larger_cells(self, records):
        fine = location_k_anonymity(records, cell_decimals=3)
        coarse = location_k_anonymity(records, cell_decimals=0)
        assert fine["fraction_k1"] > coarse["fraction_k1"]
        assert coarse["median_k"] >= fine["median_k"]

    def test_empty_inputs(self):
        assert infer_home_locations([]) == {}
        assert location_k_anonymity([])["min_k"] == 0
        with pytest.raises(ValueError):
            reidentification_rate([], [])


class TestSurfaceMinimization:
    @pytest.fixture()
    def analyzer(self):
        service, _ = build_cariad_service(n_vehicles=3, days=1)
        return FeatureSurfaceAnalyzer(service)

    def test_full_feature_set_is_vulnerable(self, analyzer):
        report = analyzer.analyze({"core", "metrics", "debug"})
        assert report.kill_chain_viable
        assert report.debug_endpoints == 2

    def test_removing_debug_kills_the_chain(self, analyzer):
        report = analyzer.analyze({"core", "metrics"})
        assert not report.kill_chain_viable
        assert report.debug_endpoints == 0

    def test_surface_monotone_in_features(self, analyzer):
        small = analyzer.analyze({"core"})
        large = analyzer.analyze({"core", "metrics", "debug"})
        assert large.exposed_endpoints > small.exposed_endpoints
        assert large.kill_chain_depth >= small.kill_chain_depth

    def test_sweep_covers_all_subsets(self, analyzer):
        reports = analyzer.sweep()
        assert len(reports) == 2 ** len(analyzer.all_features)
        viable = [r for r in reports if r.kill_chain_viable]
        # Exactly the subsets containing "debug" are viable.
        assert all("debug" in r.features for r in viable)

    def test_minimal_safe_surface(self, analyzer):
        report = analyzer.minimal_safe_surface({"core"})
        assert report is not None
        assert not report.kill_chain_viable
        assert "core" in report.features

    def test_unknown_feature_rejected(self, analyzer):
        with pytest.raises(ValueError):
            analyzer.analyze({"warp-drive"})

    def test_analyze_restores_service_state(self, analyzer):
        before = set(analyzer.service.enabled_features)
        analyzer.analyze({"core"})
        assert analyzer.service.enabled_features == before


class TestTrajectoryUniqueness:
    def test_uniqueness_monotone_in_points(self, records):
        from repro.datalayer.privacy import trajectory_uniqueness

        u1 = trajectory_uniqueness(records, n_points=1, trials_per_vehicle=5)
        u4 = trajectory_uniqueness(records, n_points=4, trials_per_vehicle=5)
        assert 0.0 <= u1 <= u4 <= 1.0

    def test_few_points_suffice(self, records):
        # The de-Montjoye result reproduced on the synthetic fleet:
        # a handful of coarse points identifies nearly everyone.
        from repro.datalayer.privacy import trajectory_uniqueness

        assert trajectory_uniqueness(records, n_points=4,
                                     trials_per_vehicle=5) > 0.9

    def test_coarsening_reduces_uniqueness(self, records):
        from repro.datalayer.privacy import trajectory_uniqueness

        fine = trajectory_uniqueness(records, n_points=2, trials_per_vehicle=5)
        coarse = trajectory_uniqueness(
            [r.coarsened(1) for r in records], n_points=2,
            cell_decimals=1, trials_per_vehicle=5)
        assert coarse <= fine

    def test_empty_and_validation(self):
        from repro.datalayer.privacy import trajectory_uniqueness

        assert trajectory_uniqueness([]) == 0.0
        import pytest

        with pytest.raises(ValueError):
            trajectory_uniqueness([], n_points=0)


class TestGeoIndistinguishability:
    def test_noise_reduces_reidentification(self, fleet, records):
        from repro.datalayer.privacy import geo_indistinguishable, reidentification_rate

        anonymized = [r.anonymized() for r in records]
        baseline = reidentification_rate(anonymized, fleet.vehicles)
        noisy = geo_indistinguishable(anonymized, epsilon_per_km=0.5)
        assert reidentification_rate(noisy, fleet.vehicles) < baseline

    def test_epsilon_controls_privacy_utility_tradeoff(self, records):
        from repro.datalayer.privacy import geo_indistinguishable, utility_loss_m

        strong = geo_indistinguishable(records, epsilon_per_km=0.5, seed=1)
        weak = geo_indistinguishable(records, epsilon_per_km=8.0, seed=1)
        assert utility_loss_m(records, strong) > utility_loss_m(records, weak)

    def test_pii_and_timestamps_preserved(self, records):
        from repro.datalayer.privacy import geo_indistinguishable

        noisy = geo_indistinguishable(records[:5])
        for original, perturbed in zip(records[:5], noisy):
            assert perturbed.vin == original.vin
            assert perturbed.timestamp == original.timestamp
            assert (perturbed.lat, perturbed.lon) != (original.lat, original.lon)

    def test_validation(self):
        from repro.datalayer.privacy import geo_indistinguishable, utility_loss_m

        with pytest.raises(ValueError):
            geo_indistinguishable([], epsilon_per_km=0.0)
        with pytest.raises(ValueError):
            utility_loss_m([], [None])
        assert utility_loss_m([], []) == 0.0
