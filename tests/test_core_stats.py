"""Tests for the Monte-Carlo statistics helpers."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stats import proportions_differ, wilson_interval
from repro.sos.cascade import CascadeSimulator
from repro.sos.maas import build_maas_sos


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        low, high = wilson_interval(80, 100)
        assert low < 0.8 < high

    def test_behaved_at_extremes(self):
        low0, high0 = wilson_interval(0, 50)
        assert low0 == 0.0 and high0 > 0.0
        low1, high1 = wilson_interval(50, 50)
        assert low1 < 1.0 and high1 == 1.0

    def test_narrows_with_more_trials(self):
        narrow = wilson_interval(800, 1000)
        wide = wilson_interval(8, 10)
        assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])

    def test_widens_with_confidence(self):
        ci95 = wilson_interval(50, 100, confidence=0.95)
        ci99 = wilson_interval(50, 100, confidence=0.99)
        assert (ci99[1] - ci99[0]) > (ci95[1] - ci95[0])

    @settings(max_examples=40)
    @given(st.integers(min_value=1, max_value=500), st.data())
    def test_bounds_property(self, trials, data):
        successes = data.draw(st.integers(min_value=0, max_value=trials))
        low, high = wilson_interval(successes, trials)
        assert 0.0 <= low <= successes / trials <= high <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 4)
        with pytest.raises(ValueError):
            wilson_interval(1, 10, confidence=1.0)


class TestProportionsDiffer:
    def test_clear_difference_detected(self):
        assert proportions_differ(90, 100, 10, 100)

    def test_same_rates_not_flagged(self):
        assert not proportions_differ(50, 100, 52, 100)

    def test_small_samples_inconclusive(self):
        # 3/4 vs 1/4 looks different but the evidence is thin.
        assert not proportions_differ(3, 4, 1, 4)

    def test_degenerate_equal(self):
        assert not proportions_differ(0, 10, 0, 10)
        assert proportions_differ(10, 10, 0, 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            proportions_differ(5, 4, 1, 10)


class TestCascadeInterval:
    def test_interval_brackets_estimate(self):
        sim = CascadeSimulator(build_maas_sos(), seed_label="stats")
        result = sim.run("cloud-backend", trials=200)
        low, high = result.critical_hit_interval()
        assert low <= result.p_safety_critical_hit <= high
        assert high - low < 0.2  # 200 trials give a usable interval

    def test_secured_vs_open_statistically_distinct(self):
        open_sim = CascadeSimulator(build_maas_sos(), seed_label="stats2")
        sec_sim = CascadeSimulator(build_maas_sos(secured_interfaces=True),
                                   seed_label="stats2")
        trials = 300
        open_result = open_sim.run("maas-platform", trials=trials)
        sec_result = sec_sim.run("maas-platform", trials=trials)
        assert proportions_differ(
            round(open_result.p_safety_critical_hit * trials), trials,
            round(sec_result.p_safety_critical_hit * trials), trials)


def test_simulator_imports_do_not_load_scipy_stats():
    # scipy.stats is imported only inside the two helpers that use it, so
    # a fresh interpreter importing the simulators never pays for it.
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys, repro.crypto, repro.ivn, repro.ssi; "
            "assert 'scipy.stats' not in sys.modules, 'scipy.stats was imported'")
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_core_and_crypto_imports_do_not_load_networkx_or_numpy():
    # The core facade re-exports only Simulator and the crypto facade only
    # x25519_base, so a fresh interpreter importing either pays for neither
    # the attack graph (networkx) nor the seeded RNGs (numpy); the SSI
    # stack builds no graph.
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys, repro.core, repro.crypto; "
            "loaded = sorted({'networkx', 'numpy'} & set(sys.modules)); "
            "assert not loaded, f'core/crypto loaded {loaded}'; "
            "import repro.ssi; "
            "assert 'networkx' not in sys.modules, 'repro.ssi loaded networkx'")
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
