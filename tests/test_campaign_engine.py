"""The campaign engine: determinism, resume, supervision verdicts.

These tests run real supervised worker processes over tiny matrices of
cheap shards (chaos at short durations), so every supervision path —
crash retry, hang detection, quarantine, timeout, interrupt — is the
production code path, not a mock.
"""

import json

import pytest

from repro.campaign import (
    CampaignEngine,
    CampaignError,
    CampaignSpec,
    CampaignTool,
    ShardSpec,
    plan_worker_faults,
    replay,
    validate_campaign_dict,
)
from repro.campaign.supervisor import Supervisor
from repro.faults import get_plan

CRASH = "runner-worker-crash"
HANG = "runner-worker-hang"


def _echo_shard(shard):
    return {"status": "ok", "pid": shard["id"]}


def _nested_pool_shard(shard):
    """A shard that runs a supervised pool of its own (BENCH-RUN does)."""
    outcomes, _ = Supervisor(_echo_shard, jobs=2).run(
        [{"id": f"{shard['id']}/{i}"} for i in range(3)])
    return {"status": "ok",
            "inner": sorted(o.payload["pid"] for o in outcomes.values())}


def small_spec(name="eng"):
    return CampaignSpec.matrix(
        tools=[CampaignTool.CHAOS, CampaignTool.LINT],
        scenarios=["pkes-legacy", "onboard-insecure"],
        plans=["baseline"], seeds=[5], duration=8, name=name)


def make_engine(root, spec=None, **kwargs):
    kwargs.setdefault("jobs", 2)
    kwargs.setdefault("fsync", False)
    return CampaignEngine(spec or small_spec(), journal_root=root, **kwargs)


def doc_bytes(report):
    document = report.to_json_dict()
    validate_campaign_dict(document)
    return json.dumps(document, sort_keys=True)


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """One uninterrupted run every other test compares bytes against."""
    root = tmp_path_factory.mktemp("ref")
    return doc_bytes(make_engine(root).run())


class TestDeterminism:
    def test_two_fresh_runs_are_byte_identical(self, tmp_path, reference):
        assert doc_bytes(make_engine(tmp_path).run()) == reference

    def test_parallelism_does_not_change_bytes(self, tmp_path, reference):
        sequential = make_engine(tmp_path, jobs=1)
        assert doc_bytes(sequential.run()) == reference

    def test_fresh_run_refuses_existing_journal(self, tmp_path):
        make_engine(tmp_path).run()
        with pytest.raises(CampaignError, match="resume"):
            make_engine(tmp_path).run()

    def test_resume_refuses_edited_spec(self, tmp_path):
        make_engine(tmp_path).run()
        other = CampaignSpec.matrix(
            tools=[CampaignTool.LINT], scenarios=["pkes-legacy"],
            seeds=[5], name="eng")  # same id, different matrix
        with pytest.raises(CampaignError, match="different"):
            make_engine(tmp_path, spec=other).run(resume=True)

    def test_resume_of_complete_campaign_is_pure_replay(self, tmp_path,
                                                        reference):
        make_engine(tmp_path).run()
        resumed = make_engine(tmp_path)
        report = resumed.run(resume=True)
        assert doc_bytes(report) == reference
        assert report.resumed_shards == len(small_spec())
        # replay executed nothing: only the original journal records
        state = replay(resumed.journal_file)
        assert state.ended and len(state.starts) == len(small_spec())


class TestSupervisionVerdicts:
    def test_worker_crash_is_retried_to_the_same_bytes(self, tmp_path,
                                                       reference):
        sid = small_spec().shards[0].shard_id
        engine = make_engine(tmp_path, worker_faults={sid: {0: CRASH}})
        report = engine.run()
        assert doc_bytes(report) == reference
        assert report.entries[sid].attempts == 2

    def test_worker_hang_is_detected_and_retried(self, tmp_path, reference):
        sid = small_spec().shards[0].shard_id
        engine = make_engine(tmp_path, worker_faults={sid: {0: HANG}},
                             heartbeat_interval_s=0.02, hang_timeout_s=0.3)
        report = engine.run()
        assert doc_bytes(report) == reference
        assert report.entries[sid].attempts == 2

    def test_poison_shard_is_quarantined_not_dropped(self, tmp_path):
        sid = small_spec().shards[0].shard_id
        engine = make_engine(
            tmp_path, quarantine_after=2,
            worker_faults={sid: {0: CRASH, 1: CRASH}})
        report = engine.run()
        document = report.to_json_dict()
        validate_campaign_dict(document)
        entry = report.entries[sid]
        assert entry.status == "quarantined" and entry.attempts == 2
        assert "quarantined after 2" in entry.error
        assert document["summary"]["quarantined"] == 1
        assert document["summary"]["complete"]
        assert report.exit_code() == 1
        # the quarantine is durable: resume does not retry poison
        resumed = make_engine(tmp_path).run(resume=True)
        assert resumed.entries[sid].status == "quarantined"
        assert resumed.entries[sid].attempts == 2

    def test_hung_shard_past_budget_times_out(self, tmp_path):
        sid = small_spec().shards[0].shard_id
        engine = make_engine(
            tmp_path, shard_timeout_s=0.3, hang_timeout_s=10.0,
            worker_faults={sid: {0: HANG}})
        report = engine.run()
        entry = report.entries[sid]
        assert entry.status == "timeout"
        assert "timed out" in entry.error
        assert report.exit_code() == 1

    def test_deterministic_tool_failure_is_error_without_retry(self,
                                                               tmp_path):
        bad = CampaignSpec(shards=(
            ShardSpec(tool=CampaignTool.LINT, scenario="no-such-scenario"),),
            name="bad")
        report = make_engine(tmp_path, spec=bad, jobs=1).run()
        entry = report.entries["lint/no-such-scenario/-/s0"]
        assert entry.status == "error" and entry.attempts == 1
        assert "KeyError" in entry.error
        validate_campaign_dict(report.to_json_dict())


class TestNestedPools:
    def test_a_shard_can_start_its_own_supervisor(self):
        # Daemonic workers may not have children: the inner pool failed
        # in every worker and the shard was quarantined.
        outcomes, interrupted = Supervisor(_nested_pool_shard, jobs=2).run(
            [{"id": "a"}, {"id": "b"}])
        assert not interrupted
        assert {sid: (o.status, o.attempts) for sid, o in outcomes.items()} \
            == {"a": ("ok", 1), "b": ("ok", 1)}
        assert outcomes["a"].payload["inner"] == ["a/0", "a/1", "a/2"]


class TestInterruptAndResume:
    def stop_after(self, engine, n):
        """Request a graceful stop once n shards have settled."""
        original = engine._emit
        seen = {"n": 0}

        def spy(kind, source, message, **fields):
            original(kind, source, message, **fields)
            if kind.value == "shard-done":
                seen["n"] += 1
                if seen["n"] >= n:
                    engine.request_stop()

        engine._emit = spy

    @pytest.mark.parametrize("settle_first", [1, 2, 3])
    def test_interrupt_then_resume_is_byte_identical(self, tmp_path,
                                                     reference,
                                                     settle_first):
        engine = make_engine(tmp_path, jobs=1)
        self.stop_after(engine, settle_first)
        partial = engine.run()
        assert partial.interrupted and partial.exit_code() == 130
        partial_doc = partial.to_json_dict()
        validate_campaign_dict(partial_doc)
        assert partial_doc["summary"]["interrupted"]
        assert partial_doc["summary"]["pending"] >= 1
        state = replay(engine.journal_file)
        assert state.interrupts == 1 and not state.ended

        resumed = make_engine(tmp_path).run(resume=True)
        assert doc_bytes(resumed) == reference
        assert resumed.resumed_shards == settle_first
        assert not resumed.interrupted

    def test_partial_report_contains_only_settled_results(self, tmp_path):
        engine = make_engine(tmp_path, jobs=1)
        self.stop_after(engine, 1)
        partial = engine.run()
        statuses = {e.status for e in partial.entries.values()}
        assert statuses == {"ok"} and len(partial.entries) >= 1
        counts = partial.counts()
        assert counts["pending"] == len(small_spec()) - len(partial.entries)


class TestSelfChaosPlanBridge:
    def test_fault_map_is_deterministic(self):
        spec = small_spec()
        plan = get_plan("severe")
        first = plan_worker_faults(spec, plan, base_seed=4)
        second = plan_worker_faults(spec, plan, base_seed=4)
        assert first == second
        # the severe plan's worker-crash window covers attempts 0-1
        assert any(faults for faults in first.values())
        for per_attempt in first.values():
            assert set(per_attempt.values()) <= {CRASH, HANG}

    def test_fault_map_respects_base_seed(self):
        spec = CampaignSpec.matrix(
            tools=[CampaignTool.CHAOS], scenarios=["pkes-legacy"],
            plans=["baseline"], seeds=list(range(8)), duration=8)
        plan = get_plan("severe")
        maps = {seed: plan_worker_faults(spec, plan, base_seed=seed)
                for seed in (1, 2)}
        # both derive from the same windows but their streams differ;
        # determinism per seed is the contract, equality across seeds
        # is not required (and the windows may still coincide)
        assert maps[1] == plan_worker_faults(spec, plan, base_seed=1)

    def test_plan_driven_self_chaos_reaches_reference_bytes(
            self, tmp_path, reference):
        spec = small_spec()
        faults = plan_worker_faults(spec, get_plan("severe"), base_seed=4)
        # quarantine_after above the faulted attempts: every shard must
        # survive its injected worker deaths and settle identically
        engine = make_engine(tmp_path, worker_faults=faults,
                             quarantine_after=4,
                             heartbeat_interval_s=0.02, hang_timeout_s=0.3)
        assert doc_bytes(engine.run()) == reference
