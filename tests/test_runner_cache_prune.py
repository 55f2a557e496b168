"""LRU pruning of the experiment result cache (``--cache-max-entries``)."""

import os

import pytest

from repro.campaign import ResultCache


def fill(cache, n, *, t0=1_000_000):
    """Insert keys k0..k(n-1) with strictly increasing mtimes."""
    for i in range(n):
        path = cache.put(f"k{i}", {"id": f"k{i}"})
        os.utime(path, (t0 + i, t0 + i))


def keys(cache):
    return sorted(p.stem for p in cache.directory.glob("*.json"))


class TestPrune:
    def test_put_evicts_oldest_beyond_cap(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=3)
        fill(cache, 3)
        cache.put("k3", {"id": "k3"})
        assert keys(cache) == ["k1", "k2", "k3"]  # k0 was oldest

    def test_eviction_is_lru_not_insertion_order(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=3)
        fill(cache, 3)
        assert cache.get("k0") is not None  # refreshes k0's recency
        cache.put("k3", {"id": "k3"})
        # k1 is now the least recently used, not k0
        assert keys(cache) == ["k0", "k2", "k3"]

    def test_fresh_write_is_protected_from_its_own_prune(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=1)
        fill(cache, 1)
        path = cache.put("knew", {"id": "knew"})
        # force the freshly-written entry to look stale: it must still
        # survive its own put's prune via the keep= protection
        os.utime(path, (1, 1))
        cache.prune(1, keep=path)
        assert keys(cache) == ["knew"]

    def test_prune_returns_removed_count_and_is_stable(self, tmp_path):
        cache = ResultCache(tmp_path)
        fill(cache, 5)
        assert cache.prune(2) == 3
        assert keys(cache) == ["k3", "k4"]
        assert cache.prune(2) == 0  # already at cap: nothing to do

    def test_mtime_ties_break_by_path_deterministically(self, tmp_path):
        cache = ResultCache(tmp_path)
        fill(cache, 4, t0=500)
        for path in cache.directory.glob("*.json"):
            os.utime(path, (500, 500))  # everything equally old
        assert cache.prune(2) == 2
        assert keys(cache) == ["k2", "k3"]  # lexicographic tail survives

    def test_unbounded_cache_never_prunes_on_put(self, tmp_path):
        cache = ResultCache(tmp_path)  # max_entries=None
        fill(cache, 10)
        assert len(cache) == 10

    def test_cap_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="max_entries"):
            ResultCache(tmp_path, max_entries=0)

    def test_missing_directory_prunes_nothing(self, tmp_path):
        assert ResultCache(tmp_path / "absent").prune(1) == 0


class TestRunnerWiring:
    def test_sweep_runner_caps_its_cache(self, synthetic, tmp_path):
        experiments = synthetic.write({
            f"SYN{i}": f"def test_table(show):\n    show('SYN{i} table', [])\n"
            for i in range(3)})
        cache_dir = tmp_path / "cache"
        report = synthetic.engine(
            experiments, cache=ResultCache(cache_dir, max_entries=2)).run()
        assert report.counts()["ok"] == 3
        # three passed results flowed through a cache capped at two
        assert len(ResultCache(cache_dir)) == 2
