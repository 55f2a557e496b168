"""The ``python -m repro campaign`` subcommand."""

import json

import pytest

from repro.campaign import (CampaignSpec, CampaignTool, Journal, journal,
                            validate_campaign_dict)


def run_args(root, *extra):
    return ("campaign", "run", "--tools", "lint,flow",
            "--scenarios", "pkes-legacy,maas-platform",
            "--journal-root", str(root), "--name", "clitest") + extra


class TestRun:
    def test_table_output_and_exit_code(self, run_cli, tmp_path):
        code, out, _ = run_cli(*run_args(tmp_path))
        assert code == 0
        assert "campaign clitest (4 shards)" in out and "4 ok" in out
        assert "lint/pkes-legacy/-/s0" in out

    def test_json_validates(self, run_cli, tmp_path):
        code, out, _ = run_cli(*run_args(tmp_path, "--json"))
        assert code == 0
        document = json.loads(out)
        validate_campaign_dict(document)
        assert document["campaign"]["id"] == "clitest"
        assert document["summary"]["ok"] == 4

    def test_report_file_is_byte_identical_across_fresh_runs(self, run_cli,
                                                             tmp_path):
        paths = []
        for run in ("a", "b"):
            root = tmp_path / run      # fresh journal root per run
            path = tmp_path / f"{run}.json"
            code, _, err = run_cli(*run_args(
                root, "--report", str(path)))
            assert code == 0 and "wrote campaign report" in err
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_second_run_over_same_journal_is_refused(self, run_cli, tmp_path):
        assert run_cli(*run_args(tmp_path))[0] == 0
        code, _, err = run_cli(*run_args(tmp_path))
        assert code == 2
        assert "campaign resume clitest" in err

    def test_unknown_axis_values_exit_2(self, run_cli, tmp_path):
        for extra in (("--tools", "fuzzer"),
                      ("--scenarios", "nope"),
                      ("--plans", "nope")):
            code, _, err = run_cli(
                "campaign", "run", "--journal-root", str(tmp_path),
                *extra)
            assert code == 2 and "available" in err


class TestResumeStatusList:
    def test_resume_completes_to_identical_bytes(self, run_cli, tmp_path):
        first = tmp_path / "first.json"
        again = tmp_path / "again.json"
        run_cli(*run_args(tmp_path / "j", "--report", str(first)))
        code, _, _ = run_cli("campaign", "resume", "clitest",
                             "--journal-root", str(tmp_path / "j"),
                             "--report", str(again))
        assert code == 0
        assert first.read_bytes() == again.read_bytes()

    def test_status_summarises_without_running(self, run_cli, tmp_path):
        run_cli(*run_args(tmp_path))
        code, out, _ = run_cli("campaign", "status", "clitest",
                               "--journal-root", str(tmp_path))
        assert code == 0
        assert "complete" in out and "4/4 shard(s) settled" in out

    def test_status_replays_the_journal_once(self, run_cli, tmp_path,
                                             monkeypatch):
        run_cli(*run_args(tmp_path))
        reads = []
        read = journal._read

        def counted(path):
            reads.append(path)
            return read(path)

        monkeypatch.setattr(journal, "_read", counted)
        code, out, _ = run_cli("campaign", "status", "clitest",
                               "--journal-root", str(tmp_path))
        assert code == 0 and "4/4 shard(s) settled" in out
        assert len(reads) == 1

    @pytest.mark.parametrize("flags", [("--jobs", "2"), ("--timeout", "5"), ("--json",),
                                       ("--report", "status.json")],
                             ids=["jobs", "timeout", "json", "report"])
    def test_status_takes_only_an_id_and_a_journal_root(self, run_cli, tmp_path, capsys,
                                                        flags):
        run_cli(*run_args(tmp_path / "j"))
        flags = tuple(str(tmp_path / flag) if flag.endswith(".json") else flag
                      for flag in flags)
        with pytest.raises(SystemExit) as exit_info:
            run_cli("campaign", "status", "clitest", "--journal-root", str(tmp_path / "j"),
                    *flags)
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(flags)}" in captured.err
        assert sorted(tmp_path.iterdir()) == [tmp_path / "j"]

    def test_resume_replays_the_journal_once(self, run_cli, tmp_path,
                                             monkeypatch):
        reference = tmp_path / "reference.json"
        resumed = tmp_path / "resumed.json"
        run_cli(*run_args(tmp_path / "j", "--report", str(reference)))
        # cut the journal after its second settled shard: a crashed run
        path = tmp_path / "j" / "clitest" / "journal.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        done = [i for i, line in enumerate(lines) if '"type":"shard-done"' in line]
        path.write_text("".join(lines[:done[1] + 1]))
        reads = []
        read = journal._read

        def counted(path):
            reads.append(path)
            return read(path)

        # every read of the file, Journal.open's included, goes through _read
        monkeypatch.setattr(journal, "_read", counted)
        code, _, _ = run_cli("campaign", "resume", "clitest",
                             "--journal-root", str(tmp_path / "j"),
                             "--report", str(resumed))
        assert code == 0
        assert len(reads) == 1
        assert resumed.read_bytes() == reference.read_bytes()

    def test_list_enumerates_journaled_campaigns(self, run_cli, tmp_path):
        run_cli(*run_args(tmp_path))
        code, out, _ = run_cli("campaign", "list",
                               "--journal-root", str(tmp_path))
        assert code == 0
        assert "clitest" in out and "complete" in out

    def test_list_with_no_journals(self, run_cli, tmp_path):
        code, out, _ = run_cli("campaign", "list",
                               "--journal-root", str(tmp_path))
        assert code == 0 and "no journaled campaigns" in out

    def test_unknown_campaign_id_exits_2(self, run_cli, tmp_path):
        for command in ("resume", "status"):
            code, _, err = run_cli("campaign", command, "ghost",
                                   "--journal-root", str(tmp_path))
            assert code == 2 and "ghost" in err


class TestMalformedJournal:
    """Checksum-valid records no engine writes: typed errors, not tracebacks."""

    SHARD_ID = "lint/pkes-legacy/-/s0"

    def campaign(self):
        return CampaignSpec.matrix(tools=[CampaignTool.LINT],
                                   scenarios=["pkes-legacy"],
                                   name="bad").to_dict()

    def assert_refused(self, run_cli, root, records, reason):
        with Journal(root / "bad" / "journal.jsonl") as journal:
            for record in records:
                journal.append(record)
        for command in ("resume", "status"):
            code, _, err = run_cli("campaign", command, "bad",
                                   "--journal-root", str(root))
            assert code == 2 and reason in err, (command, err)
        code, out, _ = run_cli("campaign", "list", "--journal-root", str(root))
        assert code == 0 and "corrupt" in out

    def test_shard_done_without_shard_id(self, run_cli, tmp_path):
        self.assert_refused(run_cli, tmp_path, [
            {"type": "campaign-start", "campaign": self.campaign()},
            {"type": "shard-done", "status": "error", "result": None,
             "digest": "", "error": "boom", "attempts": 1, "durationS": 0.1},
        ], "missing ['shardId']")

    def test_campaign_start_without_shards(self, run_cli, tmp_path):
        campaign = self.campaign()
        del campaign["shards"]
        self.assert_refused(run_cli, tmp_path, [
            {"type": "campaign-start", "campaign": campaign},
        ], "missing ['shards']")

    def test_ok_shard_without_result_or_matching_digest(self, run_cli,
                                                        tmp_path):
        self.assert_refused(run_cli, tmp_path, [
            {"type": "campaign-start", "campaign": self.campaign()},
            {"type": "shard-done", "shardId": self.SHARD_ID, "status": "ok",
             "result": None, "digest": "bogus", "error": "", "attempts": 1,
             "durationS": 0.1},
            {"type": "campaign-end", "settled": 1},
        ], "is ok but has no result document")
