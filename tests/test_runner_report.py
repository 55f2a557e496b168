"""The experiment-campaign report: rendering, JSON export, and schema
validation of what ``repro run --json`` prints."""

import copy

import pytest

from repro.campaign import (CampaignReport, ShardEntry, experiment_spec, result_digest,
                            validate_campaign_dict)
from repro.core.schema import SchemaError
from repro.experiments import find


def _entry(shard, status, result=None, error="", attempts=1):
    return ShardEntry(shard=shard.to_dict(), status=status, result=result,
                      digest=result_digest(result) if result is not None else "",
                      error=error, attempts=attempts, duration_s=0.25)


def sample_report(ids=("FIG1", "FIG2", "TAB1", "EXT-1")) -> CampaignReport:
    spec = experiment_spec([find(exp_id) for exp_id in ids])
    outcomes = {
        "FIG1": ("ok", {"artifacts": [{"title": "Fig. 1", "rows": ["r1", "r2"]}]}, ""),
        "FIG2": ("ok", {"artifacts": []}, ""),
        "TAB1": ("error", None, "test_table: AssertionError: assert failed"),
        "EXT-1": ("timeout", None, "timed out after 0.3s budget"),
    }
    report = CampaignReport(spec=spec)
    for shard in spec.shards:
        status, result, error = outcomes[shard.scenario]
        report.entries[shard.shard_id] = _entry(
            shard, status, result, error, attempts=2 if status == "timeout" else 1)
    return report


class TestReport:
    def test_ok_and_exit_code(self):
        assert sample_report().exit_code() == 1
        assert sample_report(("FIG1", "FIG2")).exit_code() == 0

    def test_counts(self):
        assert sample_report().counts() == {
            "ok": 2, "error": 1, "timeout": 1, "quarantined": 0, "pending": 0}

    def test_table_mentions_everything(self):
        text = sample_report().to_table()
        assert "experiment/FIG1/-/s0" in text and "0.250s x1" in text
        assert "x2" in text and "timed out" in text
        assert "(4 shards)" in text and "2 ok, 1 error, 1 timeout" in text


def _duplicate_first(document):
    document["shards"].insert(1, copy.deepcopy(document["shards"][0]))


class TestSchema:
    def test_sample_document_validates(self):
        validate_campaign_dict(sample_report().to_json_dict())

    def test_summary_counts_enforced(self):
        document = sample_report().to_json_dict()
        document["summary"]["ok"] = 3
        with pytest.raises(SchemaError, match="summary.ok"):
            validate_campaign_dict(document)

    # Each case keeps the id of the sweep-document check it replaced.
    # Wall-clock and scheduling values (jobs, wallS, durationS) and cache
    # hits stay out of the document, so a re-run prints the same bytes.
    @pytest.mark.parametrize("mutate, match", [
        pytest.param(lambda d: d.pop("campaign"), "document: keys mismatch",
                     id="<lambda>-top-level keys"),
        pytest.param(lambda d: d.update(version="9.9"), "version: must be",
                     id="<lambda>-schema version"),
        pytest.param(lambda d: d["tool"].update(name="other"),
                     "tool.name: must be", id="<lambda>-tool name"),
        pytest.param(lambda d: d["campaign"].update(jobs=2),
                     r"campaign: keys mismatch: unexpected \['jobs'\]",
                     id="<lambda>-jobs"),
        pytest.param(lambda d: d["summary"].update(wallS=1.0),
                     r"summary: keys mismatch: unexpected \['wallS'\]",
                     id="<lambda>-wallS"),
        pytest.param(lambda d: d["shards"][1].update(digest="0" * 64),
                     "digest does not match", id="<lambda>-treeDigest"),
        pytest.param(lambda d: d["shards"][0].update(status="exploded"),
                     "status: must be one of", id="<lambda>-bad status"),
        pytest.param(lambda d: d["shards"][1].update(cached=True),
                     r"keys mismatch: unexpected \['cached'\]",
                     id="<lambda>-cached flag"),
        pytest.param(lambda d: d["shards"][1].update(durationS=0.5),
                     r"keys mismatch: unexpected \['durationS'\]",
                     id="<lambda>-durationS"),
        pytest.param(lambda d: d["shards"][0].pop("seed"), "keys",
                     id="<lambda>-keys"),
        pytest.param(lambda d: d["shards"][1]["result"]["artifacts"].append({"title": ""}),
                     "digest does not match", id="<lambda>-artifact"),
        pytest.param(_duplicate_first, "duplicate id", id="<lambda>-duplicate id"),
        pytest.param(lambda d: d["summary"].update(ok=99), "summary.ok",
                     id="<lambda>-summary.ok"),
        pytest.param(lambda d: d["summary"].update(total=99), "summary.total",
                     id="<lambda>-summary.total"),
    ])
    def test_mutations_rejected(self, mutate, match):
        document = sample_report().to_json_dict()
        mutate(document)
        with pytest.raises(SchemaError, match=match):
            validate_campaign_dict(document)

    def test_duplicate_mutation_also_breaks_counts_first(self):
        # appending a duplicate changes counts and order too; ensure *some*
        # schema error fires whichever check trips first
        document = sample_report().to_json_dict()
        document["shards"].append(copy.deepcopy(document["shards"][0]))
        with pytest.raises(SchemaError):
            validate_campaign_dict(document)
