"""Self-tests of the end-to-end benchmark harness.

Run with ``python -m pytest benchmarks/e2e -q``.  Runs are kept short by
passing ``seconds=0``: each phase then runs only its digest window.
"""

from __future__ import annotations

import json
import shutil
import tempfile

import pytest
import run
from compare import compare
from harness import nearest_rank

import identity_trust
import protected_traffic
import tool_campaign

SPEC = {"workloads": [{"name": "w"}],
        "end_to_end": [{"name": "ops_per_s", "better": "higher", "bound": 0.1},
                       {"name": "op_p50_ms", "better": "lower", "bound": 0.1}]}


@pytest.fixture()
def workdir(monkeypatch):
    run.WORK_ROOT.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix="test-", dir=run.WORK_ROOT)
    monkeypatch.setattr(tempfile, "tempdir", path)
    monkeypatch.setenv("TMPDIR", path)
    monkeypatch.setenv("REPRO_BASE_SEED", "0")
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_run_matches_untraced_and_accounts_for_wall_time(workload, seed, workdir):
    events = f"{workdir}/trace.json"
    record = run.run_workload(workload, seed, 0, trace=True, trace_events=events)
    assert record["failed"] == 0 and record["digest_pinned"] is True
    # (a) the traced phase produces the same outputs as the untraced one
    if workload != "tool-campaign":     # its traced phase runs single shards
        assert record["traced_digest"] == record["digest"]
    # (b) layer self times plus unattributed add up to the traced wall
    metrics = record["metrics"]
    self_s = sum(v for k, v in metrics.items() if k.endswith(".self_share")) \
        * metrics["trace.wall_s"]
    assert self_s == pytest.approx(record["traced_wall_s"], rel=0.01, abs=0.001)
    document = json.loads(open(events).read())
    ops = [e for e in document["traceEvents"] if e["cat"] == "op"]
    assert 1 <= len(ops) <= 20
    assert any(e["cat"] != "op" for e in document["traceEvents"])
    from repro.crypto import ed25519
    assert not hasattr(ed25519.sign, "__wrapped__")


def test_inputs_follow_the_seed():
    # (c) same seed, same inputs; another seed, other inputs
    assert protected_traffic.cycle_inputs(1, 7) == protected_traffic.cycle_inputs(1, 7)
    assert protected_traffic.cycle_inputs(1, 7) != protected_traffic.cycle_inputs(2, 7)
    assert identity_trust.world_inputs(1) == identity_trust.world_inputs(1)
    assert identity_trust.world_inputs(1) != identity_trust.world_inputs(2)
    ops = [identity_trust.op_inputs(1, i) for i in range(20)]
    assert ops == [identity_trust.op_inputs(1, i) for i in range(20)]
    assert ops != [identity_trust.op_inputs(2, i) for i in range(20)]
    assert sorted(op["kind"] for op in ops) == sorted(identity_trust.BLOCK)
    assert tool_campaign.campaign_seeds(1, 0) == tool_campaign.campaign_seeds(1, 0)
    assert tool_campaign.campaign_seeds(1, 0) != tool_campaign.campaign_seeds(2, 0)
    assert len(tool_campaign.campaign_spec(1, 0)) == 1015


def test_percentiles_need_ten_samples_beyond():
    # (d) p99 from fewer than 1000 samples is refused
    with pytest.raises(ValueError):
        nearest_rank([1.0] * 999, 0.99)
    assert nearest_rank(list(range(1, 1001)), 0.99) == 990
    with pytest.raises(ValueError):
        nearest_rank([1.0] * 199, 0.95)
    assert nearest_rank(list(range(1, 21)), 0.5) == 10


def _records(values, metric="ops_per_s", failed=0):
    return [{"workload": "w", "trace": 0, "attempted": 100, "failed": failed,
             "metrics": {"ops_per_s": 100.0, "op_p50_ms": 10.0, metric: value}}
            for value in values]


def _verdict(base, head):
    rows = compare(base, head, SPEC)
    return {row.metric: row.verdict for row in rows}


def test_compare_verdicts():
    # (e) verdicts on synthetic run sets
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    assert _verdict(_records(steady), _records([v * 0.8 for v in steady]))[
        "ops_per_s"] == "regressed"
    assert _verdict(_records(steady), _records([v * 1.2 for v in steady]))[
        "ops_per_s"] == "improved"
    assert _verdict(_records(steady), _records(steady))["ops_per_s"] == "unchanged"
    noisy = [70.0, 130.0, 80.0, 120.0, 75.0, 125.0, 90.0, 110.0, 100.0, 100.0]
    assert _verdict(_records(noisy), _records([v * 0.85 for v in noisy]))[
        "ops_per_s"] == "unresolved"
    latency = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.01, 9.99]
    assert _verdict(_records(latency, "op_p50_ms"),
                    _records([v * 1.2 for v in latency], "op_p50_ms"))[
        "op_p50_ms"] == "regressed"
    assert _verdict(_records(steady), _records(steady, failed=1))[
        "fail_ratio"] == "regressed"
