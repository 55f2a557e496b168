"""Generated bad journals: each resumes to the same bytes or exits 2.

One small mixed campaign (two static lint cells and six chaos shards,
so its journal holds shard-done records the engine settled from its
static-shard memo, with no shard-start) runs once through the CLI.
Hypothesis then reorders, duplicates and drops records of that journal
and resumes each result through ``campaign resume``, in two forms:

* *raw*: the lines as they were, so their sequence numbers and
  checksums no longer follow each other (a tampered or mis-merged file);
* *restamped*: the records re-sequenced and re-checksummed, as a writer
  that appended them in that order would have left them, so only the
  engine's replay rules stand between the file and the report.

Every generated journal must either resume to the uninterrupted
document, byte for byte, or exit 2 with a one-line reason
(``JournalCorrupt``/``CampaignError``).  A traceback, another exit code
or a different document fails the test.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.campaign.journal import _stamp
from tests.conftest import assert_same_bytes

NAME = "bad-journal"
RUN = ["campaign", "run", "--tools", "lint,chaos", "--scenarios", "onboard-insecure,pkes-legacy",
       "--seeds", "0,1,2", "--duration", "8", "--jobs", "2", "--name", NAME, "--json"]


def cli(argv):
    """Run the CLI in-process; returns ``(exit code, stdout, stderr)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """The campaign's journal lines and its document."""
    root = tmp_path_factory.mktemp("reference")
    code, out, err = cli([*RUN, "--journal-root", str(root)])
    assert code == 0, err
    lines = (root / NAME / "journal.jsonl").read_text().splitlines(keepends=True)
    records = [json.loads(line) for line in lines]
    starts = {r["shardId"] for r in records if r["type"] == "shard-start"}
    memo_settled = [r for r in records if r["type"] == "shard-done"
                    and r["shardId"] not in starts]
    assert len(memo_settled) == 4  # two lint cells, three seeds each
    return lines, out


#: One edit of the journal's list of lines; indices wrap around.
EDITS = st.one_of(
    st.tuples(st.just("drop"), st.integers(0, 99)),
    st.tuples(st.just("duplicate"), st.integers(0, 99), st.integers(0, 99)),
    st.tuples(st.just("move"), st.integers(0, 99), st.integers(0, 99)),
)


def edited(lines, edits):
    lines = list(lines)
    for edit in edits:
        if not lines:
            break
        kind, source = edit[0], edit[1] % len(lines)
        if kind == "drop":
            del lines[source]
        elif kind == "duplicate":
            lines.insert(edit[2] % (len(lines) + 1), lines[source])
        else:
            line = lines.pop(source)
            lines.insert(edit[2] % (len(lines) + 1), line)
    return lines


def restamped(lines):
    """The records re-sequenced and re-checksummed in their new order."""
    stamped = []
    for seq, line in enumerate(lines):
        record = json.loads(line)
        del record["check"]
        stamped.append(_stamp({**record, "seq": seq}) + "\n")
    return stamped


def resume(journal):
    """Resume a journal made of ``journal``'s lines through the CLI; returns
    ``(exit code, stdout, stderr, the shard ids the resume started)``."""
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / NAME / "journal.jsonl"
        path.parent.mkdir()
        path.write_text("".join(journal))
        code, out, err = cli(["campaign", "resume", NAME, "--journal-root", root,
                              "--jobs", "2", "--json"])
        started = [json.loads(line)["shardId"]
                   for line in path.read_text().splitlines()[len(journal):]
                   if '"type":"shard-start"' in line]
    return code, out, err, started


def check(uninterrupted, journal, label):
    """Same bytes at exit 0, or exit 2 with one line on stderr."""
    code, out, err, started = resume(journal)
    if code == 2:
        assert out == "" and len(err.splitlines()) == 1, err
        assert "Traceback" not in err
    else:
        assert code == 0, err
        assert_same_bytes(out, uninterrupted[1], label)
    return code, started


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(EDITS, min_size=1, max_size=4), restamp=st.booleans())
@example(edits=[("move", 0, 99)], restamp=True)
@example(edits=[("duplicate", 0, 1)], restamp=True)
@example(edits=[("drop", 3), ("drop", 3), ("drop", 3), ("drop", 3)], restamp=True)
@example(edits=[("move", 2, 5)], restamp=False)
@example(edits=[("duplicate", 99, 99)], restamp=False)
def test_a_generated_journal_resumes_to_the_same_bytes_or_exits_2(uninterrupted, edits,
                                                                  restamp):
    journal = edited(uninterrupted[0], edits)
    if restamp:
        journal = restamped(journal)
    check(uninterrupted, journal, f"edits={edits} restamp={restamp}")


FIRST, REST = "lint/onboard-insecure/-/s0", ("lint/onboard-insecure/-/s1",
                                              "lint/onboard-insecure/-/s2")


def without(lines, *shard_ids, kind="shard-done"):
    return [line for line in lines
            if not (f'"type":"{kind}"' in line
                    and any(f'"shardId":"{shard_id}"' in line for shard_id in shard_ids))]


class TestPinnedJournals:
    def test_a_memo_settled_record_alone_seeds_the_memo(self, uninterrupted):
        # the cell's first shard lost its shard-done; a memo-settled one
        # of the same cell settles it, and nothing of the cell runs again
        code, started = check(uninterrupted, restamped(without(uninterrupted[0], FIRST)),
                              "first shard's done dropped")
        assert code == 0 and started == []

    def test_dropped_memo_settled_records_are_settled_again_from_the_memo(self,
                                                                          uninterrupted):
        code, started = check(uninterrupted, restamped(without(uninterrupted[0], *REST)),
                              "memo-settled records dropped")
        assert code == 0 and started == []

    def test_a_whole_cell_dropped_runs_its_first_shard_only(self, uninterrupted):
        lines = without(uninterrupted[0], FIRST, *REST)
        code, started = check(uninterrupted, restamped(without(lines, FIRST, kind="shard-start")),
                              "whole cell dropped")
        assert code == 0 and started == [FIRST]

    def test_campaign_start_last_is_still_the_campaign(self, uninterrupted):
        lines = list(uninterrupted[0])
        lines.append(lines.pop(0))
        code, started = check(uninterrupted, restamped(lines), "campaign-start last")
        assert code == 0 and started == []

    def test_a_duplicated_campaign_start_exits_2(self, uninterrupted):
        lines = list(uninterrupted[0])
        code, _ = check(uninterrupted, restamped([lines[0], *lines]), "two campaign-starts")
        assert code == 2
