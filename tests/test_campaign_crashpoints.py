"""Crash-point enumeration: a journal cut anywhere resumes to the same bytes.

One small campaign runs uninterrupted and keeps its journal.  Copies of
that journal are then cut at every record boundary, and torn inside
every record (half a line, and a whole line without its newline), which
is every state a crash can leave the file in.  Each copy is resumed and
its final report compared byte for byte with the uninterrupted one; the
resumed journal must end the campaign with exactly one terminal record
per shard, so nothing settled before the cut runs again.

Two campaigns are enumerated: cheap synthetic shards (one of them a
deterministic ``error``), and a real ``lint,flow,redteam`` campaign
over one scenario and three seeds, whose static shards repeat per seed.
"""

import json

import pytest

from repro.campaign import (CampaignEngine, CampaignSpec, CampaignTool,
                            ResultCache, execute_shard, replay)
from repro.campaign.experiment import _cached
from repro.campaign.shard import canonical_json, result_digest
from tests.conftest import assert_same_bytes

STATIC_TOOLS = [CampaignTool.LINT, CampaignTool.FLOW, CampaignTool.REDTEAM]


def _synthetic_shard(shard):
    """A cheap, deterministic worker function; seed 2 always fails."""
    if shard["seed"] == 2:
        return {"shard": dict(shard), "status": "error", "result": None,
                "digest": "", "error": "ValueError: seed 2", "durationS": 0.0}
    result = {"id": shard["id"], "value": shard["seed"] * 7 + len(shard["scenario"])}
    return {"shard": dict(shard), "status": "ok", "result": canonical_json(result),
            "digest": result_digest(result), "error": "", "durationS": 0.0}


CAMPAIGNS = {
    "synthetic": (CampaignSpec.matrix(tools=[CampaignTool.LINT],
                                      scenarios=["maas-platform", "pkes-legacy"],
                                      seeds=[0, 1, 2], name="cut-synthetic"),
                  _synthetic_shard),
    "static": (CampaignSpec.matrix(tools=STATIC_TOOLS, scenarios=["onboard-insecure"],
                                   seeds=[0, 1, 2], name="cut-static"),
               execute_shard),
}


def report_bytes(report):
    return json.dumps(report.to_json_dict(), sort_keys=True)


def engine(spec, execute, root):
    return CampaignEngine(spec, jobs=2, journal_root=root, execute=execute)


def cut_points(journal):
    """``(label, byte offset)`` of every boundary and every torn record."""
    points = [("boundary 0", 0)]
    start = 0
    for index, line in enumerate(journal.split(b"\n")[:-1]):
        end = start + len(line)
        points += [(f"record {index} torn at half", start + len(line) // 2),
                   (f"record {index} without newline", end),
                   (f"boundary {index + 1}", end + 1)]
        start = end + 1
    return points


@pytest.fixture(scope="module", params=sorted(CAMPAIGNS))
def uninterrupted(request, tmp_path_factory):
    spec, execute = CAMPAIGNS[request.param]
    if execute is execute_shard:
        # import every tool module before the engine forks its workers
        for tool in STATIC_TOOLS:
            execute_shard(next(s for s in spec.shards if s.tool is tool).to_dict())
    run = engine(spec, execute, tmp_path_factory.mktemp(request.param))
    report = run.run()
    return spec, execute, run.journal_file.read_bytes(), report_bytes(report)


def test_every_cut_resumes_to_the_uninterrupted_bytes(uninterrupted, tmp_path):
    spec, execute, journal, reference = uninterrupted
    assert journal.count(b'"type":"shard-done"') == len(spec)
    points = cut_points(journal)
    assert len(points) == 3 * journal.count(b"\n") + 1
    for label, offset in points:
        root = tmp_path / f"cut-{offset}"
        resumed = engine(spec, execute, root)
        resumed.journal_file.parent.mkdir(parents=True)
        resumed.journal_file.write_bytes(journal[:offset])
        assert_same_bytes(report_bytes(resumed.run(resume=True)), reference, label)
        state = replay(resumed.journal_file)
        assert state.ended, label
        text = resumed.journal_file.read_text()
        assert text.count('"type":"shard-done"') == len(spec), label


class TestTruncatedCacheEntry:
    def test_every_truncation_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        document = {"artifacts": [{"title": "T", "rows": ["a | 1", "b | 2"]}]}
        path = cache.put("k", document)
        full = path.read_bytes()
        assert cache.get("k") == document and _cached(cache, "k") == document
        # the last byte is the newline after the closing brace
        for cut in range(len(full) - 1):
            path.write_bytes(full[:cut])
            assert cache.get("k") is None, cut
            assert _cached(cache, "k") is None, cut
