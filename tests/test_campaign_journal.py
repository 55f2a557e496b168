"""The write-ahead journal: durability protocol, torn tails, replay."""

import json
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import (
    CampaignEngine,
    CampaignSpec,
    CampaignTool,
    Journal,
    JournalCorrupt,
    execute_shard,
    experiment_executor,
    experiment_spec,
    read_records,
    replay,
)
from repro.campaign.journal import _canonical, _checksum, _stamp
from repro.campaign.shard import result_digest
from repro.experiments import Experiment
from repro.lint import scenario_names
from tests.conftest import assert_same_bytes


def spec():
    return CampaignSpec.matrix(tools=[CampaignTool.LINT],
                               scenarios=["pkes-legacy", "maas-platform"],
                               name="j")


def write_records(path, records):
    with Journal(path) as journal:
        for record in records:
            journal.append(record)


class TestJournalAppend:
    def test_records_round_trip_with_seq_and_checksum(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        write_records(path, [
            {"type": "campaign-start", "campaign": spec().to_dict()},
            {"type": "shard-start", "shardId": "lint/pkes-legacy/-/s0",
             "attempt": 0},
        ])
        records = read_records(path)
        assert [r["seq"] for r in records] == [0, 1]
        assert [r["type"] for r in records] == ["campaign-start",
                                                "shard-start"]

    def test_append_continues_sequence_across_reopen(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        write_records(path, [{"type": "campaign-start",
                              "campaign": spec().to_dict()}])
        write_records(path, [{"type": "interrupt", "settled": 0}])
        assert [r["seq"] for r in read_records(path)] == [0, 1]

    def test_unknown_record_type_rejected_at_write(self, tmp_path):
        with Journal(tmp_path / "j.jsonl") as journal:
            with pytest.raises(ValueError, match="unknown journal record"):
                journal.append({"type": "mystery"})

    def test_append_requires_open(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        with pytest.raises(ValueError, match="not open"):
            journal.append({"type": "interrupt"})

    def test_write_accounting(self, tmp_path):
        with Journal(tmp_path / "j.jsonl") as journal:
            journal.append({"type": "campaign-start",
                            "campaign": spec().to_dict()})
            journal.append({"type": "interrupt", "settled": 0})
            assert journal.records_written == 2
            assert journal.write_s >= 0.0

    def test_missing_file_is_empty(self, tmp_path):
        assert read_records(tmp_path / "nope.jsonl") == []


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12)


class TestEncodeOnce:
    @settings(max_examples=200, deadline=None)
    @given(record=st.dictionaries(st.text(), JSON_VALUES, max_size=6),
           seq=st.integers(min_value=0, max_value=10**6))
    def test_line_is_the_canonical_stamped_record(self, record, seq):
        stamped = {**record, "seq": seq}
        expected = _canonical({**stamped, "check": _checksum(stamped)})
        line = _stamp(dict(stamped))
        assert line == expected

    def test_an_earlier_journal_resumes_to_the_same_report(self, tmp_path):
        # Lines written before records were encoded once are the
        # canonical record with its checksum: the same bytes.
        campaign = CampaignSpec.matrix(
            tools=[CampaignTool.LINT, CampaignTool.CHAOS],
            scenarios=["pkes-legacy", "maas-platform"], name="earlier")
        engine = CampaignEngine(campaign, journal_root=tmp_path)
        reference = engine.run().to_json_dict()
        path = engine.journal_file
        earlier = [_canonical({**record, "check": _checksum(record)}) + "\n"
                   for record in read_records(path)]
        assert path.read_text() == "".join(earlier)

        path.write_text("".join(earlier[:4]))
        resumed = CampaignEngine(campaign, journal_root=tmp_path).run(resume=True)
        assert resumed.to_json_dict() == reference


SYNTHETIC_BENCH = """\
def test_table(show):
    show("Fig. S \u2014 spliced \u00b5s", [("row \u00e9", 1.5), ("row b", None)])
"""


def _noncanonical_shard(shard, *, encode):
    """A worker function whose result text is not canonical JSON."""
    result = {"seed": shard["seed"], "b": [1, 2.5], "a": "\u00e9"}
    return {"status": "ok", "result": encode(result), "digest": result_digest(result),
            "error": "", "durationS": 0.0}


NONCANONICAL = {
    "whitespace": partial(_noncanonical_shard,
                          encode=lambda r: json.dumps(r, sort_keys=True)),
    "key-order": partial(_noncanonical_shard,
                         encode=lambda r: json.dumps(r, separators=(",", ":"))),
}


@pytest.fixture(scope="module")
def payloads(tmp_path_factory):
    """Every payload of a one-seed ``--tools all --scenarios all`` campaign,
    and one experiment payload."""
    campaign = CampaignSpec.matrix(tools=list(CampaignTool),
                                   scenarios=sorted(scenario_names()), seeds=[0])
    found = [execute_shard(shard.to_dict()) for shard in campaign.shards]
    bench = tmp_path_factory.mktemp("bench") / "bench_spliced.py"
    bench.write_text(SYNTHETIC_BENCH)
    execute = experiment_executor([Experiment("SPLICE", "-", "synthetic", str(bench))])
    found.append(execute(experiment_spec(
        [Experiment("SPLICE", "-", "synthetic", str(bench))]).shards[0].to_dict()))
    assert [payload["status"] for payload in found] == ["ok"] * (len(campaign) + 1)
    return found


class TestSplicedResults:
    def test_a_spliced_line_is_the_encoded_line(self, tmp_path, payloads):
        for index, payload in enumerate(payloads):
            record = {"type": "shard-done", "shardId": payload["shard"]["id"],
                      "status": "ok", "result": json.loads(payload["result"]),
                      "digest": payload["digest"], "error": "", "attempts": 1,
                      "durationS": 0.012345}
            encoded, spliced = (tmp_path / f"{kind}.{index}" for kind in ("e", "s"))
            with Journal(encoded) as journal:
                journal.append(dict(record))
            with Journal(spliced) as journal:
                journal.append(dict(record), result_json=payload["result"])
            assert_same_bytes(spliced.read_bytes(), encoded.read_bytes(),
                              payload["shard"]["id"])
            assert read_records(spliced)[0]["result"] == record["result"]

    def test_every_engine_line_is_the_canonical_stamped_record(self, tmp_path):
        campaign = CampaignSpec.matrix(tools=list(CampaignTool),
                                       scenarios=sorted(scenario_names()),
                                       seeds=[0, 1], name="spliced")
        engine = CampaignEngine(campaign, jobs=2, journal_root=tmp_path)
        engine.run()
        text = engine.journal_file.read_text()
        lines = [_canonical({**record, "check": _checksum(record)}) + "\n"
                 for record in read_records(engine.journal_file)]
        assert_same_bytes(text, "".join(lines))
        assert text.count('"type":"shard-done"') == len(campaign)

    @pytest.mark.parametrize("kind", sorted(NONCANONICAL))
    def test_a_noncanonical_text_is_a_corrupt_journal(self, tmp_path, run_cli, kind):
        campaign = CampaignSpec.matrix(tools=[CampaignTool.LINT],
                                       scenarios=["pkes-legacy"], seeds=[0, 1],
                                       name=f"noncanonical-{kind}")
        engine = CampaignEngine(campaign, journal_root=tmp_path,
                                execute=NONCANONICAL[kind])
        engine.run()
        with pytest.raises(JournalCorrupt, match="checksum mismatch"):
            CampaignEngine(campaign, journal_root=tmp_path,
                           execute=NONCANONICAL[kind]).run(resume=True)
        code, out, err = run_cli("campaign", "resume", campaign.campaign_id,
                                 "--journal-root", str(tmp_path), "--json")
        assert (code, out) == (2, "")
        assert "checksum mismatch" in err and "Traceback" not in err


class TestCorruption:
    def good(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        write_records(path, [
            {"type": "campaign-start", "campaign": spec().to_dict()},
            {"type": "shard-start", "shardId": "lint/pkes-legacy/-/s0",
             "attempt": 0},
            {"type": "shard-done", "shardId": "lint/pkes-legacy/-/s0",
             "status": "ok", "result": {"x": 1}, "digest": "d", "error": "",
             "attempts": 1, "durationS": 0.1},
        ])
        return path

    def test_torn_trailing_record_is_dropped(self, tmp_path):
        path = self.good(tmp_path)
        with open(path, "a") as handle:
            handle.write('{"type": "shard-done", "shardId": "lint/maas')
        records = read_records(path)
        assert len(records) == 3  # the torn tail is simply gone

    def test_trailing_checksum_mismatch_is_dropped(self, tmp_path):
        path = self.good(tmp_path)
        lines = path.read_text().splitlines()
        tampered = json.loads(lines[-1])
        tampered["status"] = "error"  # tamper after checksum stamping
        lines[-1] = json.dumps(tampered)
        path.write_text("\n".join(lines) + "\n")
        assert len(read_records(path)) == 2

    def test_mid_file_corruption_refuses_to_replay(self, tmp_path):
        path = self.good(tmp_path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace("shard-start", "shard-sta rt")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalCorrupt):
            read_records(path)

    def test_sequence_gap_refuses_to_replay(self, tmp_path):
        path = self.good(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], lines[2]]) + "\n" + lines[1]
                        + "\n")
        with pytest.raises(JournalCorrupt, match="sequence|checksum"):
            read_records(path)


class TestReplay:
    def test_replay_folds_progress(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        write_records(path, [
            {"type": "campaign-start", "campaign": spec().to_dict()},
            {"type": "shard-start", "shardId": "a", "attempt": 0},
            {"type": "shard-start", "shardId": "b", "attempt": 0},
            {"type": "shard-done", "shardId": "a", "status": "ok",
             "result": {}, "digest": "d", "error": "", "attempts": 1,
             "durationS": 0.1},
            {"type": "shard-start", "shardId": "c", "attempt": 0},
            {"type": "shard-quarantined", "shardId": "c",
             "error": "poison", "attempts": 3, "durationS": 0.2,
             "failures": ["worker crashed"] * 3},
            {"type": "interrupt", "settled": 2},
        ])
        state = replay(path)
        assert set(state.done) == {"a"}
        assert set(state.quarantined) == {"c"}
        assert state.in_flight == ["b"]
        assert state.settled("a") and state.settled("c")
        assert not state.settled("b")
        assert state.interrupts == 1 and not state.ended
        assert state.starts == {"a": 1, "b": 1, "c": 1}

    def test_replay_requires_campaign_start_first(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        write_records(path, [{"type": "shard-start", "shardId": "a",
                              "attempt": 0},
                             {"type": "interrupt", "settled": 0}])
        with pytest.raises(JournalCorrupt, match="campaign-start"):
            replay(path)

    def test_replay_rejects_duplicate_campaign_start(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        document = spec().to_dict()
        write_records(path, [
            {"type": "campaign-start", "campaign": document},
            {"type": "campaign-start", "campaign": document},
        ])
        with pytest.raises(JournalCorrupt, match="duplicate"):
            replay(path)

    def test_replay_rejects_bad_done_status(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        write_records(path, [
            {"type": "campaign-start", "campaign": spec().to_dict()},
            {"type": "shard-done", "shardId": "a", "status": "exploded",
             "result": None, "digest": "", "error": "x", "attempts": 1,
             "durationS": 0.0},
        ])
        with pytest.raises(JournalCorrupt, match="status"):
            replay(path)

    def test_empty_journal_replays_to_empty_state(self, tmp_path):
        state = replay(tmp_path / "missing.jsonl")
        assert state.spec is None and state.records == 0
        assert not state.ended and state.in_flight == []


class TestTornTailResume:
    def test_resume_after_a_torn_tail_leaves_a_replayable_journal(
            self, tmp_path):
        campaign = CampaignSpec.matrix(
            tools=[CampaignTool.LINT, CampaignTool.FLOW],
            scenarios=["pkes-legacy", "maas-platform"], name="torn")
        engine = CampaignEngine(campaign, journal_root=tmp_path)
        reference = engine.run().to_json_dict()
        path = engine.journal_file
        lines = path.read_text().splitlines(keepends=True)
        # the crash tore the record after the first settled shard
        path.write_text("".join(lines[:3]) + '{"attempts":1,"digest":"ab')

        resumed = CampaignEngine(campaign, journal_root=tmp_path).run(resume=True)
        state = replay(path)
        assert state.ended
        assert path.read_text().endswith("\n")
        assert resumed.to_json_dict() == reference
