"""The sweep report: rendering, JSON export, and schema validation."""

import copy

import pytest

from repro.runner import SweepSchemaError, validate_sweep_dict
from repro.runner.engine import ExperimentResult
from repro.runner.report import SweepReport


def sample_report() -> SweepReport:
    results = [
        ExperimentResult("FIG1", "passed", 0, 1.25, 11, cache_key="a" * 64,
                         artifacts=[{"title": "Fig. 1", "rows": ["r1", "r2"]}]),
        ExperimentResult("FIG2", "cached", 0, 2.5, 22, cached=True,
                         cache_key="b" * 64),
        ExperimentResult("TAB1", "failed", 1, 0.5, 33, retries=0,
                         error="assert failed"),
        ExperimentResult("EXT-1", "timeout", -1, 0.3, 44, retries=1,
                         error="timed out after 0.3s"),
    ]
    return SweepReport(results, jobs=4, cache_enabled=True, base_seed=0,
                       wall_s=3.75, tree="t" * 64)


class TestReport:
    def test_ok_and_exit_code(self):
        report = sample_report()
        assert not report.ok and report.exit_code() == 1
        good = SweepReport(report.results[:2], jobs=1, cache_enabled=True,
                           base_seed=0, wall_s=1.0, tree="t")
        assert good.ok and good.exit_code() == 0

    def test_counts(self):
        assert sample_report().counts() == {
            "passed": 1, "cached": 1, "failed": 1, "errors": 0, "timeouts": 1}

    def test_table_mentions_everything(self):
        text = sample_report().to_table()
        assert "FIG1" in text and "cache hit" in text
        assert "after 1 retry" in text and "timed out" in text
        assert "4 experiment(s)" in text and "4 job(s)" in text


class TestSchema:
    def test_sample_document_validates(self):
        validate_sweep_dict(sample_report().to_json_dict())

    def test_summary_counts_enforced(self):
        document = sample_report().to_json_dict()
        document["summary"]["passed"] = 2
        with pytest.raises(SweepSchemaError, match="summary.passed"):
            validate_sweep_dict(document)

    # Explicit ids keep these cases' names stable where the match string,
    # which otherwise becomes the id, is spelled as a node path.
    @pytest.mark.parametrize("mutate, match", [
        pytest.param(lambda d: d.pop("sweep"), "document: keys mismatch",
                     id="<lambda>-top-level keys"),
        pytest.param(lambda d: d.update(version="9.9"), "version: must be",
                     id="<lambda>-schema version"),
        pytest.param(lambda d: d["tool"].update(name="other"),
                     "tool.name: must be", id="<lambda>-tool name"),
        (lambda d: d["sweep"].update(jobs=0), "jobs"),
        (lambda d: d["sweep"].update(wallS=-1.0), "wallS"),
        (lambda d: d["sweep"].update(treeDigest=""), "treeDigest"),
        pytest.param(lambda d: d["experiments"][0].update(status="exploded"),
                     "status: must be one of", id="<lambda>-bad status"),
        (lambda d: d["experiments"][0].update(cached=True),
         "cached flag"),
        (lambda d: d["experiments"][0].update(durationS=-2), "durationS"),
        (lambda d: d["experiments"][0].pop("seed"), "keys"),
        (lambda d: d["experiments"][0]["artifacts"].append({"title": ""}),
         "artifact"),
        (lambda d: d["experiments"].append(
            copy.deepcopy(d["experiments"][0])), "duplicate id"),
        (lambda d: d["summary"].update(ok=True), "summary.ok"),
        (lambda d: d["summary"].update(total=99), "summary.total"),
    ])
    def test_mutations_rejected(self, mutate, match):
        document = sample_report().to_json_dict()
        mutate(document)
        with pytest.raises(SweepSchemaError, match=match):
            validate_sweep_dict(document)

    def test_duplicate_mutation_also_breaks_counts_first(self):
        # appending a duplicate changes counts too; ensure *some* schema
        # error fires even when counts break before the id check
        document = sample_report().to_json_dict()
        document["experiments"].append(
            copy.deepcopy(document["experiments"][0]))
        with pytest.raises(SweepSchemaError):
            validate_sweep_dict(document)
