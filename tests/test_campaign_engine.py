"""The campaign engine: determinism, resume, supervision verdicts.

These tests run real supervised worker processes over tiny matrices of
cheap shards (chaos at short durations), so every supervision path —
crash retry, hang detection, quarantine, timeout, interrupt — is the
production code path, not a mock.
"""

import json
import multiprocessing
import time
from collections import deque

import pytest

from repro.campaign import (
    CampaignEngine,
    CampaignError,
    CampaignReport,
    CampaignSpec,
    CampaignTool,
    ShardEntry,
    ShardSpec,
    execute_shard,
    plan_worker_faults,
    replay,
    validate_campaign_dict,
)
from repro.campaign.shard import TOOL_EXECUTORS
from repro.campaign.supervisor import WORKER_CRASH_EXIT, Supervisor, _WorkItem, _Worker
from repro.faults import get_plan
from repro.lint import Linter, scenario_names

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


STATIC_TOOLS = [CampaignTool.LINT, CampaignTool.FLOW, CampaignTool.REDTEAM]


def static_spec():
    """Every static tool on every scenario, three seeds each: 15 cells, 45 shards."""
    return CampaignSpec.matrix(tools=STATIC_TOOLS, scenarios=sorted(scenario_names()),
                               seeds=[0, 1, 2], name="static")


def in_process_bytes(spec):
    """The report built from un-memoized in-process ``execute_shard`` calls."""
    report = CampaignReport(spec=spec)
    for shard in spec.shards:
        payload = execute_shard(shard.to_dict())
        report.entries[shard.shard_id] = ShardEntry(
            shard=shard.to_dict(), status=payload["status"], result=payload["result"],
            digest=payload["digest"], error=payload["error"])
    return doc_bytes(report)


def shard_digests(document):
    return [(shard["id"], shard["digest"]) for shard in json.loads(document)["shards"]]


def _slow_echo_shard(shard):
    time.sleep(0.05)
    return {"status": "ok", "pid": shard["id"]}


class TestStaticShardMemo:
    def test_memoized_campaigns_match_in_process_documents(self, tmp_path):
        spec = static_spec()
        expected = in_process_bytes(spec)
        for jobs in (1, 2):
            document = doc_bytes(make_engine(tmp_path / f"j{jobs}", spec, jobs=jobs).run())
            # per-shard digests first: a short diff where a long one is slow
            assert shard_digests(document) == shard_digests(expected), jobs
            assert document == expected, jobs

    def test_direct_calls_run_the_analyzer_every_time(self, monkeypatch):
        runs = []
        original = Linter.run

        def counted(self, *args, **kwargs):
            runs.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Linter, "run", counted)
        shards = [ShardSpec(tool=tool, scenario="pkes-legacy", seed=seed).to_dict()
                  for tool in (CampaignTool.LINT, CampaignTool.FLOW) for seed in (0, 1, 2)]
        direct = [execute_shard(shard) for shard in shards]
        assert len(runs) == 6
        memo = {}
        memoized = [execute_shard(shard, memo) for shard in shards]
        assert len(runs) == 6 + 2
        assert sorted(memo) == [("flow", "pkes-legacy"), ("lint", "pkes-legacy")]
        for plain, cached in zip(direct, memoized):
            assert (cached["status"], cached["shard"]) == ("ok", plain["shard"])
            assert (cached["result"], cached["digest"]) == (plain["result"], plain["digest"])

    def test_error_and_plan_driven_results_are_never_memoized(self, monkeypatch):
        failures = iter([ValueError("first run fails")])
        original = TOOL_EXECUTORS[CampaignTool.LINT]

        def flaky(spec):
            for exc in failures:
                raise exc
            return original(spec)

        monkeypatch.setitem(TOOL_EXECUTORS, CampaignTool.LINT, flaky)
        memo = {}
        first = execute_shard(ShardSpec(tool=CampaignTool.LINT, scenario="pkes-legacy",
                                        seed=0).to_dict(), memo)
        assert first["status"] == "error" and memo == {}
        second = execute_shard(ShardSpec(tool=CampaignTool.LINT, scenario="pkes-legacy",
                                         seed=1).to_dict(), memo)
        assert second["status"] == "ok" and list(memo) == [("lint", "pkes-legacy")]
        chaos = ShardSpec(tool=CampaignTool.CHAOS, scenario="pkes-legacy", plan="baseline",
                          seed=0, duration=4).to_dict()
        assert execute_shard(chaos, memo)["status"] == "ok"
        assert list(memo) == [("lint", "pkes-legacy")]


class TestLookahead:
    def run_logged(self, shards, **kwargs):
        """Run a supervisor; returns its outcomes and the start/settle log."""
        log = []
        supervisor = Supervisor(
            kwargs.pop("execute", _echo_shard),
            on_dispatch=lambda starts: log.extend(("start", sid, attempt)
                                                  for sid, attempt, _ in starts),
            on_outcome=lambda outcome: log.append(("done", outcome.shard_id)),
            **kwargs)
        outcomes, interrupted = supervisor.run([{"id": sid} for sid in shards])
        assert not interrupted
        return outcomes, log

    @staticmethod
    def in_flight_at_starts(log):
        counts, running = [], 0
        for event in log:
            running += 1 if event[0] == "start" else -1
            if event[0] == "start":
                counts.append(running)
        return counts

    def test_a_lookahead_is_sent_only_while_the_queue_exceeds_jobs(self):
        # 5 shards on 2 workers: the first pass sends a, its lookahead b, and c
        _, log = self.run_logged("abcde", jobs=2)
        assert log[:3] == [("start", "a", 0), ("start", "b", 0), ("start", "c", 0)]
        # 3 shards on 2 workers: never more than one shard per worker
        _, log = self.run_logged("abc", jobs=2, execute=_slow_echo_shard)
        assert max(self.in_flight_at_starts(log)) == 2

    def test_crash_on_a_lookahead_is_charged_to_that_shard(self):
        outcomes, log = self.run_logged("abcd", jobs=1, worker_faults={"b": {0: CRASH}})
        # b was sent behind a before a settled: it was a lookahead
        assert log.index(("start", "b", 0)) < log.index(("done", "a"))
        assert {sid: (o.status, o.attempts) for sid, o in outcomes.items()} == {
            "a": ("ok", 1), "b": ("ok", 2), "c": ("ok", 1), "d": ("ok", 1)}
        assert outcomes["b"].failures == [f"worker crashed (exit {WORKER_CRASH_EXIT})"]
        # whatever was queued behind b when its worker died went back uncharged
        assert all(not outcomes[sid].failures for sid in "acd")

    def test_a_death_after_a_result_is_charged_to_the_lookahead(self):
        # the worker sends a's result, starts its lookahead b and dies
        # before the scheduler reads the result: a settles, b is charged
        supervisor = Supervisor(_echo_shard, jobs=1, worker_faults={"b": {0: CRASH}})
        worker = _Worker(multiprocessing.get_context(), _echo_shard)
        a, b = (_WorkItem(shard_id=sid, shard={"id": sid}, budget_s=5.0) for sid in "ab")
        worker.start(a)
        worker.queued = b
        for item in (a, b):
            worker.send(item, fault=supervisor._fault_for(item), heartbeat_interval_s=0.05)
        worker.process.join(timeout=10.0)
        assert not worker.process.is_alive()
        queue, outcomes = deque(), {}
        supervisor._check(worker, time.monotonic(), queue, outcomes)
        assert (outcomes["a"].status, outcomes["a"].attempts) == ("ok", 1)
        assert [(item.shard_id, item.attempt) for item in queue] == [("b", 1)]
        assert b.failures == [f"worker crashed (exit {WORKER_CRASH_EXIT})"]

    @pytest.mark.parametrize("fault, limits, status", [
        (CRASH, {}, "ok"),
        (HANG, {"heartbeat_interval_s": 0.02, "hang_timeout_s": 0.3}, "ok"),
        (HANG, {"shard_timeout_s": 0.3, "hang_timeout_s": 10.0}, "timeout"),
    ], ids=["crash", "hang", "timeout"])
    def test_the_lookahead_of_a_failed_worker_goes_back_uncharged(self, fault, limits,
                                                                   status):
        outcomes, log = self.run_logged("abcd", jobs=1, worker_faults={"a": {0: fault}},
                                        **limits)
        # b was sent behind a in the first pass, so it sat in the dead worker's pipe
        assert log[:2] == [("start", "a", 0), ("start", "b", 0)]
        assert outcomes["a"].status == status
        assert (outcomes["b"].status, outcomes["b"].attempts, outcomes["b"].failures) \
            == ("ok", 1, [])
        assert log.count(("start", "b", 0)) == 2  # one start more than its attempts

    def test_a_send_to_a_dead_worker_requeues_without_charge(self):
        started = []
        supervisor = Supervisor(_echo_shard, jobs=1,
                                on_dispatch=lambda starts: started.extend(s[0] for s in starts))
        worker = _Worker(multiprocessing.get_context(), _echo_shard)
        worker.process.kill()
        worker.process.join()
        queue = deque(_WorkItem(shard_id=sid, shard={"id": sid}, budget_s=5.0)
                      for sid in "abc")
        supervisor._dispatch([worker], queue)
        worker.conn.close()
        assert started == ["a", "b"]  # journaled before the send failed
        assert [item.shard_id for item in queue] == ["a", "b", "c"]
        assert all(item.attempt == 0 and not item.failures for item in queue)
        assert worker.item is None and worker.queued is None

    def test_failed_send_costs_only_a_journaled_start(self, tmp_path, monkeypatch,
                                                      reference):
        # the first send finds its worker dead (simulated): the shard is
        # resent, journaled twice, and still settles on its first attempt
        original = _Worker.send
        failed = []

        def send(self, item, **kwargs):
            if not failed:
                failed.append(item.shard_id)
                raise BrokenPipeError("worker died before the send")
            return original(self, item, **kwargs)

        monkeypatch.setattr(_Worker, "send", send)
        engine = make_engine(tmp_path)
        report = engine.run()
        assert doc_bytes(report) == reference
        sid = failed[0]
        assert report.entries[sid].attempts == 1
        assert replay(engine.journal_file).starts[sid] == 2

    def test_interrupt_with_a_queued_lookahead_resumes_to_the_same_bytes(self, tmp_path):
        spec = CampaignSpec.matrix(tools=[CampaignTool.LINT],
                                   scenarios=["onboard-insecure", "pkes-legacy"],
                                   seeds=[0, 1, 2], name="lookahead")
        expected = doc_bytes(make_engine(tmp_path / "ref", spec).run())
        engine = make_engine(tmp_path / "cut", spec, jobs=1)
        original = engine._emit
        starts = []

        def spy(kind, source, message, **fields):
            original(kind, source, message, **fields)
            if kind.value == "shard-start":
                starts.append(source)
                if len(starts) == 2:  # the first pass's lookahead
                    engine.request_stop()

        engine._emit = spy
        partial = engine.run()
        assert partial.interrupted
        lookahead = starts[1]
        assert lookahead not in partial.entries
        assert lookahead in replay(engine.journal_file).in_flight
        resumed = make_engine(tmp_path / "cut", spec).run(resume=True)
        assert doc_bytes(resumed) == expected
