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
from repro.campaign.shard import TOOL_EXECUTORS, canonical_json, result_digest
from repro.campaign.supervisor import WORKER_CRASH_EXIT, Supervisor, _WorkItem, _Worker
from repro.faults import get_plan
from repro.lint import Linter, scenario_names
from tests.conftest import assert_same_bytes

CRASH = "runner-worker-crash"
HANG = "runner-worker-hang"


def _echo_shard(shard):
    return {"status": "ok", "pid": shard["id"]}


def collecting():
    """An ``on_outcome`` callback, and the outcomes it collects by shard id;
    a second outcome for one shard fails the assertion."""
    outcomes = {}

    def on_outcome(outcome):
        assert outcome.shard_id not in outcomes, outcome.shard_id
        outcomes[outcome.shard_id] = outcome

    return outcomes, on_outcome


def _nested_pool_shard(shard):
    """A shard that runs a supervised pool of its own (BENCH-RUN does)."""
    outcomes, on_outcome = collecting()
    Supervisor(_echo_shard, jobs=2, on_outcome=on_outcome).run(
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
        assert_same_bytes(doc_bytes(make_engine(tmp_path).run()), reference)

    def test_parallelism_does_not_change_bytes(self, tmp_path, reference):
        sequential = make_engine(tmp_path, jobs=1)
        assert_same_bytes(doc_bytes(sequential.run()), reference)

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

    #: Worker faults that end the first three shards retried (ok on the
    #: second attempt), timed out and quarantined.
    FAULTED = {"quarantine_after": 2, "shard_timeout_s": 2.0, "hang_timeout_s": 10.0,
               "worker_faults": {shard.shard_id: faults for shard, faults in zip(
                   small_spec().shards, ({0: CRASH}, {0: HANG}, {0: CRASH, 1: CRASH}))}}

    @pytest.mark.parametrize("kwargs", [{}, FAULTED], ids=["clean", "faulted"])
    def test_resume_of_complete_campaign_is_pure_replay(self, tmp_path,
                                                        reference, kwargs):
        live = make_engine(tmp_path, **kwargs).run()
        resumed = make_engine(tmp_path, **kwargs)
        report = resumed.run(resume=True)
        assert_same_bytes(doc_bytes(report), reference if not kwargs else doc_bytes(live))
        assert report.resumed_shards == len(small_spec())
        # a resume rebuilds every live entry, bookkeeping included
        fields = ("status", "result", "digest", "error", "attempts", "duration_s")
        assert {sid: {f: getattr(entry, f) for f in fields}
                for sid, entry in report.entries.items()} \
            == {sid: {f: getattr(entry, f) for f in fields}
                for sid, entry in live.entries.items()}
        if kwargs:
            assert sorted((e.status, e.attempts) for e in report.entries.values()) \
                == [("ok", 1), ("ok", 2), ("quarantined", 2), ("timeout", 1)]
        # replay executed nothing: only the original journal records
        state = replay(resumed.journal_file)
        assert state.ended and len(state.starts) == len(small_spec())


class TestSupervisionVerdicts:
    def test_worker_crash_is_retried_to_the_same_bytes(self, tmp_path,
                                                       reference):
        sid = small_spec().shards[0].shard_id
        engine = make_engine(tmp_path, worker_faults={sid: {0: CRASH}})
        report = engine.run()
        assert_same_bytes(doc_bytes(report), reference)
        assert report.entries[sid].attempts == 2

    def test_worker_hang_is_detected_and_retried(self, tmp_path, reference):
        sid = small_spec().shards[0].shard_id
        engine = make_engine(tmp_path, worker_faults={sid: {0: HANG}},
                             heartbeat_interval_s=0.02, hang_timeout_s=0.3)
        report = engine.run()
        assert_same_bytes(doc_bytes(report), reference)
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
        outcomes, on_outcome = collecting()
        interrupted = Supervisor(_nested_pool_shard, jobs=2, on_outcome=on_outcome).run(
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
        assert_same_bytes(doc_bytes(resumed), reference)
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
        assert_same_bytes(doc_bytes(engine.run()), reference)


STATIC_TOOLS = [CampaignTool.LINT, CampaignTool.FLOW, CampaignTool.REDTEAM]


def static_spec():
    """Every static tool on every scenario, three seeds each: 15 cells, 45 shards."""
    return CampaignSpec.matrix(tools=STATIC_TOOLS, scenarios=sorted(scenario_names()),
                               seeds=[0, 1, 2], name="static")


def mixed_spec(name="mixed"):
    """Two static cells of three seeds each, and six chaos shards."""
    return CampaignSpec.matrix(tools=[CampaignTool.LINT, CampaignTool.CHAOS],
                               scenarios=["onboard-insecure", "pkes-legacy"],
                               plans=["baseline"], seeds=[0, 1, 2], duration=8, name=name)


def in_process_bytes(spec):
    """The report built from un-memoized in-process ``execute_shard`` calls."""
    report = CampaignReport(spec=spec)
    for shard in spec.shards:
        payload = execute_shard(shard.to_dict())
        report.entries[shard.shard_id] = ShardEntry(
            shard=shard.to_dict(), status=payload["status"],
            result=json.loads(payload["result"]) if payload["result"] else None,
            digest=payload["digest"], error=payload["error"])
    return doc_bytes(report)


def _slow_echo_shard(shard):
    time.sleep(0.05)
    return {"status": "ok", "pid": shard["id"]}


def _synthetic_static_shard(shard):
    """A custom worker function over static shards."""
    result = {"seed": shard["seed"], "scenario": shard["scenario"]}
    return {"status": "ok", "result": canonical_json(result),
            "digest": result_digest(result), "error": "", "durationS": 0.0}


def dispatched(engine):
    """The shard ids that have a ``shard-start`` in the engine's journal."""
    return set(replay(engine.journal_file).starts)


def first_of_each_cell(spec):
    """The first shard of every static ``(tool, scenario)`` cell."""
    firsts = {}
    for shard in spec.shards:
        if shard.tool in STATIC_TOOLS:
            firsts.setdefault((shard.tool, shard.scenario), shard.shard_id)
    return set(firsts.values())


@pytest.fixture(scope="module")
def static_document():
    return in_process_bytes(static_spec())


class TestFailFastComparison:
    def test_a_mismatched_45_shard_document_fails_in_under_a_second(self,
                                                                   static_document):
        middle = len(static_document) // 2
        changed = "1" if static_document[middle] != "1" else "2"
        mutated = static_document[:middle] + changed + static_document[middle + 1:]
        t0 = time.perf_counter()
        with pytest.raises(pytest.fail.Exception, match=f"differ at byte {middle} ") as info:
            assert_same_bytes(mutated, static_document, "static")
        assert time.perf_counter() - t0 < 1.0
        assert len(str(info.value)) < 500
        with pytest.raises(pytest.fail.Exception, match="lengths 10 and 11"):
            assert_same_bytes(static_document[:10], static_document[:11])
        assert_same_bytes(static_document, static_document.encode())


class TestStaticShardMemo:
    def test_memoized_campaigns_match_in_process_documents(self, tmp_path,
                                                           static_document):
        spec = static_spec()
        expected = static_document
        for jobs in (1, 2):
            engine = make_engine(tmp_path / f"j{jobs}", spec, jobs=jobs)
            assert_same_bytes(doc_bytes(engine.run()), expected, f"jobs={jobs}")
            # one dispatch per cell: the engine settled the other 30 shards
            assert dispatched(engine) == first_of_each_cell(spec)

    def test_direct_calls_run_the_analyzer_every_time(self, monkeypatch):
        runs = []
        original = Linter.run

        def counted(self, *args, **kwargs):
            runs.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Linter, "run", counted)
        shards = [ShardSpec(tool=tool, scenario="pkes-legacy", seed=seed).to_dict()
                  for tool in (CampaignTool.LINT, CampaignTool.FLOW) for seed in (0, 1, 2)]
        payloads = [execute_shard(shard) for shard in shards]
        assert len(runs) == 6
        for payload in payloads:
            assert payload["status"] == "ok"
            # the payload carries the result's canonical text and its digest
            assert payload["result"] == canonical_json(json.loads(payload["result"]))
            assert payload["digest"] == result_digest(json.loads(payload["result"]))

    def test_memo_settled_shards_have_a_done_but_no_start(self, tmp_path):
        spec = mixed_spec()
        engine = make_engine(tmp_path, spec)
        report = engine.run()
        memo_settled = {shard.shard_id for shard in spec.shards
                        if shard.tool is CampaignTool.LINT} - first_of_each_cell(spec)
        assert len(memo_settled) == 4
        # plan-driven shards and each cell's first shard went to the workers
        assert dispatched(engine) == {shard.shard_id for shard in spec.shards} - memo_settled
        state = replay(engine.journal_file)
        assert set(state.done) == {shard.shard_id for shard in spec.shards}
        assert report.journal_records == 2 + 2 * 8 + 4
        for shard_id in memo_settled:
            entry = report.entries[shard_id]
            assert (entry.status, entry.attempts) == ("ok", 1)
            # its duration is the engine's own settle time, journaled as is
            assert 0.0 <= entry.duration_s < 0.05
            assert state.done[shard_id]["durationS"] == round(entry.duration_s, 6)
        assert all(entry.attempts == 1 for entry in report.entries.values())

    def test_a_custom_worker_function_is_never_memoized(self, tmp_path):
        spec = CampaignSpec.matrix(tools=[CampaignTool.LINT],
                                   scenarios=["maas-platform", "pkes-legacy"],
                                   seeds=[0, 1, 2], name="custom")
        engine = make_engine(tmp_path, spec, execute=_synthetic_static_shard)
        report = engine.run()
        assert dispatched(engine) == {shard.shard_id for shard in spec.shards}
        assert {entry.result["seed"] for entry in report.entries.values()} == {0, 1, 2}

    FIRST = "lint/onboard-insecure/-/s0"
    REST = {"lint/onboard-insecure/-/s1", "lint/onboard-insecure/-/s2"}

    def run_with_a_failed_first_shard(self, tmp_path, monkeypatch, status, **kwargs):
        """Run :func:`mixed_spec` with the first shard of one lint cell
        ending ``status``; checks the rest of that cell ran on the workers
        in one further supervisor run, and returns the engine."""
        passes = []
        original_run = Supervisor.run

        def counted_run(self, shards):
            passes.append({shard["id"] for shard in shards})
            return original_run(self, shards)

        monkeypatch.setattr(Supervisor, "run", counted_run)
        engine = make_engine(tmp_path, mixed_spec(name=f"failed-{status}"), **kwargs)
        report = engine.run()
        assert report.entries[self.FIRST].status == status
        assert len(passes) == 2 and passes[1] == self.REST
        for shard_id in self.REST:
            assert (report.entries[shard_id].status, report.entries[shard_id].attempts) \
                == ("ok", 1)
        assert self.REST <= dispatched(engine)
        # the other cell's first shard settled ok and its rest came from the memo
        assert "lint/pkes-legacy/-/s1" not in dispatched(engine)
        validate_campaign_dict(report.to_json_dict())
        return engine

    def fail_the_first_shard(self, monkeypatch):
        original = TOOL_EXECUTORS[CampaignTool.LINT]

        def failing(shard):  # the workers fork with this patch in place
            if shard.seed == 0 and shard.scenario == "onboard-insecure":
                raise ValueError("the first shard fails")
            return original(shard)

        monkeypatch.setitem(TOOL_EXECUTORS, CampaignTool.LINT, failing)

    def test_error_and_plan_driven_results_are_never_memoized(self, tmp_path, monkeypatch):
        self.fail_the_first_shard(monkeypatch)
        engine = self.run_with_a_failed_first_shard(tmp_path, monkeypatch, "error")
        chaos = {shard.shard_id for shard in engine.spec.shards
                 if shard.tool is CampaignTool.CHAOS}
        assert chaos <= dispatched(engine)

    def test_a_journaled_error_does_not_seed_the_memo(self, tmp_path, monkeypatch):
        self.fail_the_first_shard(monkeypatch)
        spec = mixed_spec(name="journaled-error")
        expected = doc_bytes(make_engine(tmp_path / "ref", spec).run())
        engine = make_engine(tmp_path / "cut", spec, jobs=1)
        original = engine._emit

        def spy(kind, source, message, **fields):
            original(kind, source, message, **fields)
            if kind.value == "shard-done" and source == self.FIRST:
                engine.request_stop()

        engine._emit = spy
        assert engine.run().entries[self.FIRST].status == "error"
        resumed = make_engine(tmp_path / "cut", spec)
        report = resumed.run(resume=True)
        assert_same_bytes(doc_bytes(report), expected)
        # the cell's next pending shard is its first shard now
        assert "lint/onboard-insecure/-/s1" in dispatched(resumed)

    @pytest.mark.parametrize("status, faults", [
        ("timeout", {"worker_faults": {FIRST: {0: HANG}}, "shard_timeout_s": 1.0,
                     "hang_timeout_s": 10.0}),
        ("quarantined", {"worker_faults": {FIRST: {0: CRASH, 1: CRASH}},
                         "quarantine_after": 2}),
    ], ids=["timeout", "quarantined"])
    def test_a_failed_first_shard_sends_the_rest_of_its_cell_to_the_workers(
            self, tmp_path, monkeypatch, status, faults):
        self.run_with_a_failed_first_shard(tmp_path, monkeypatch, status, **faults)

    @pytest.mark.parametrize("stop_on", ["shard-start", "shard-done"])
    def test_an_interrupt_with_held_shards_resumes_to_the_same_bytes(self, tmp_path,
                                                                      stop_on):
        spec = mixed_spec(name=f"held-{stop_on}")
        expected = doc_bytes(make_engine(tmp_path / "ref", spec).run())
        engine = make_engine(tmp_path / "cut", spec, jobs=1)
        original = engine._emit

        def spy(kind, source, message, **fields):
            original(kind, source, message, **fields)
            if kind.value == stop_on:
                engine.request_stop()

        engine._emit = spy
        partial = engine.run()
        assert partial.interrupted
        held = [shard.shard_id for shard in spec.shards
                if shard.shard_id not in partial.entries
                and shard.shard_id not in replay(engine.journal_file).starts]
        assert any(shard_id.startswith("lint/") for shard_id in held)
        resumed = make_engine(tmp_path / "cut", spec)
        assert_same_bytes(doc_bytes(resumed.run(resume=True)), expected)
        assert dispatched(resumed) == dispatched(make_engine(tmp_path / "ref", spec))

    def test_a_resume_settles_the_rest_of_a_journaled_cell_from_the_memo(self, tmp_path):
        spec = mixed_spec(name="seeded")
        expected = doc_bytes(make_engine(tmp_path / "ref", spec).run())
        engine = make_engine(tmp_path / "cut", spec, jobs=1)
        original = engine._emit
        first = "lint/onboard-insecure/-/s0"

        def spy(kind, source, message, **fields):
            original(kind, source, message, **fields)
            if kind.value == "shard-done" and source == first:
                engine.request_stop()

        engine._emit = spy
        engine.run()
        # cut the journal right after the first shard's shard-done
        lines = engine.journal_file.read_text().splitlines(keepends=True)
        done = next(index for index, line in enumerate(lines)
                    if '"type":"shard-done"' in line and first in line)
        engine.journal_file.write_text("".join(lines[:done + 1]))
        starts = replay(engine.journal_file).starts
        resumed = make_engine(tmp_path / "cut", spec)
        assert_same_bytes(doc_bytes(resumed.run(resume=True)), expected)
        # the cell's other shards were settled from the journaled result
        after = replay(resumed.journal_file)
        for shard_id in ("lint/onboard-insecure/-/s1", "lint/onboard-insecure/-/s2"):
            assert shard_id not in after.starts and shard_id in after.done
        assert after.starts[first] == starts[first] == 1


class TestLookahead:
    def run_logged(self, shards, **kwargs):
        """Run a supervisor; returns its outcomes and the start/settle log."""
        log = []
        outcomes, collect = collecting()

        def on_outcome(outcome):
            log.append(("done", outcome.shard_id))
            collect(outcome)

        supervisor = Supervisor(
            kwargs.pop("execute", _echo_shard),
            on_dispatch=lambda starts: log.extend(("start", sid, attempt)
                                                  for sid, attempt, _ in starts),
            on_outcome=on_outcome, **kwargs)
        assert not supervisor.run([{"id": sid} for sid in shards])
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
        outcomes, on_outcome = collecting()
        supervisor = Supervisor(_echo_shard, jobs=1, worker_faults={"b": {0: CRASH}},
                                on_outcome=on_outcome)
        worker = _Worker(multiprocessing.get_context(), _echo_shard)
        a, b = (_WorkItem(shard_id=sid, shard={"id": sid}, budget_s=5.0) for sid in "ab")
        worker.start(a)
        worker.queued = b
        for item in (a, b):
            worker.send(item, fault=supervisor._fault_for(item), heartbeat_interval_s=0.05)
        worker.process.join(timeout=10.0)
        assert not worker.process.is_alive()
        queue = deque()
        supervisor._check(worker, time.monotonic(), queue)
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
        outcomes, on_outcome = collecting()
        supervisor = Supervisor(_echo_shard, jobs=1,
                                on_dispatch=lambda starts: started.extend(s[0] for s in starts),
                                on_outcome=on_outcome)
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
        assert not outcomes  # a failed send settles nothing

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
        assert_same_bytes(doc_bytes(report), reference)
        sid = failed[0]
        assert report.entries[sid].attempts == 1
        assert replay(engine.journal_file).starts[sid] == 2

    def test_interrupt_with_a_queued_lookahead_resumes_to_the_same_bytes(self, tmp_path):
        # three static cells: the engine sends only their first shards,
        # and three pending shards on one worker make a lookahead
        spec = CampaignSpec.matrix(tools=[CampaignTool.LINT],
                                   scenarios=["maas-platform", "onboard-insecure",
                                              "pkes-legacy"],
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
        assert_same_bytes(doc_bytes(resumed), expected)
