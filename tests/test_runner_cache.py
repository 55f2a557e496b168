"""The sweep runner's content-addressed result cache."""

from repro.runner import (CACHE_VERSION, ResultCache, experiment_key,
                          tree_digest)
from repro.runner import cache as cache_module


class TestTreeDigest:
    def test_stable_for_identical_trees(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "b.py").write_text("y = 2\n")
        assert tree_digest([tmp_path]) == tree_digest([tmp_path])

    def test_changes_when_content_changes(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        before = tree_digest([tmp_path])
        (tmp_path / "a.py").write_text("x = 2\n")
        assert tree_digest([tmp_path]) != before

    def test_changes_when_file_added_or_renamed(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        before = tree_digest([tmp_path])
        (tmp_path / "b.py").write_text("y = 1\n")
        added = tree_digest([tmp_path])
        assert added != before
        (tmp_path / "b.py").rename(tmp_path / "c.py")
        assert tree_digest([tmp_path]) != added

    def test_ignores_non_python_files(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        before = tree_digest([tmp_path])
        (tmp_path / "notes.txt").write_text("irrelevant\n")
        assert tree_digest([tmp_path]) == before

    def test_missing_path_is_a_marker_not_an_error(self, tmp_path):
        present = tree_digest([tmp_path / "gone.py"])
        assert isinstance(present, str) and present

    def test_single_files_accepted(self, tmp_path):
        file = tmp_path / "conftest.py"
        file.write_text("pass\n")
        assert tree_digest([file]) != tree_digest([])


class TestExperimentKey:
    def test_depends_on_every_ingredient(self, tmp_path):
        bench = tmp_path / "bench_x.py"
        bench.write_text("pass\n")
        base = experiment_key("FIG1", bench, tree="t", base_seed=0)
        assert experiment_key("FIG1", bench, tree="t", base_seed=0) == base
        assert experiment_key("FIG2", bench, tree="t", base_seed=0) != base
        assert experiment_key("FIG1", bench, tree="u", base_seed=0) != base
        assert experiment_key("FIG1", bench, tree="t", base_seed=7) != base
        bench.write_text("changed\n")
        assert experiment_key("FIG1", bench, tree="t", base_seed=0) != base

    def test_missing_bench_file_still_keys(self, tmp_path):
        key = experiment_key("FIG1", tmp_path / "gone.py", tree="t")
        assert len(key) == 64

    def test_cache_version_is_part_of_the_key(self, tmp_path, monkeypatch):
        bench = tmp_path / "bench_x.py"
        bench.write_text("pass\n")
        key = experiment_key("FIG1", bench, tree="t")
        monkeypatch.setattr(cache_module, "CACHE_VERSION", CACHE_VERSION + 1)
        assert experiment_key("FIG1", bench, tree="t") != key


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.get("k" * 64) is None
        document = {"id": "FIG1", "status": "passed", "durationS": 1.5}
        cache.put("k" * 64, document)
        assert cache.get("k" * 64) == document
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a" * 64, {"id": "X"})
        cache.path_for("a" * 64).write_text("{not json")
        assert cache.get("a" * 64) is None

    def test_non_object_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path_for("b" * 64).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for("b" * 64).write_text("[1, 2]")
        assert cache.get("b" * 64) is None

    def test_clear_removes_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a" * 64, {"id": "X"})
        cache.put("b" * 64, {"id": "Y"})
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_empty_directory_len_zero(self, tmp_path):
        assert len(ResultCache(tmp_path / "never-created")) == 0
