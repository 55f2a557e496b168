"""BENCH-CAMPAIGN — journal overhead and resume skip ratio.

The campaign engine buys crash-safety with an fsynced write-ahead
journal; this bench pins the price and the payoff:

1. **Journal overhead.** Total fsync+write time across the journal must
   stay under 5% of the shard compute time for realistically-sized
   shards (the cost is per *record*, so millisecond shards would always
   lose — the gate uses shards in the ~100ms range the tool fleet
   actually produces).
2. **Resume skip ratio.** Resuming a completed campaign must replay
   every settled shard from the journal and re-execute none of them:
   resume wall time under 10% of the cold run, i.e. the journal skips
   well over 90% of the completed-shard work.
3. **Byte-identical reports.** Cold, re-run, and resumed documents must
   serialize to the same bytes — the engine's core promise.

The measured numbers live in the tables the bench shows, which
``python -m repro run BENCH-CAMPAIGN --json`` records as artifacts.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.campaign import (
    CampaignEngine,
    CampaignSpec,
    CampaignTool,
    validate_campaign_dict,
)

#: Journal time as a fraction of shard compute time (ISSUE gate: <5%).
JOURNAL_OVERHEAD_BUDGET = 0.05
#: Resume wall as a fraction of the cold run (skip ≥90% of the work).
RESUME_BUDGET = 0.10
#: Virtual-clock ticks per chaos shard — sized so one shard costs
#: ~75-100ms, the scale the real tool fleet produces (the journal cost
#: is per record, so the overhead gate is meaningless on ms shards).
SHARD_DURATION = 6000


def _spec() -> CampaignSpec:
    return CampaignSpec.matrix(
        tools=[CampaignTool.CHAOS],
        scenarios=["pkes-legacy", "onboard-insecure", "onboard-hardened",
                   "cariad-breach", "maas-platform"],
        plans=["baseline", "severe"], seeds=[0],
        duration=SHARD_DURATION, name="bench")


def _run(root: Path, *, resume: bool = False):
    engine = CampaignEngine(_spec(), jobs=2, journal_root=root,
                            install_signal_handlers=False)
    t0 = time.perf_counter()
    report = engine.run(resume=resume)
    return report, time.perf_counter() - t0


def _bytes(report) -> str:
    document = report.to_json_dict()
    validate_campaign_dict(document)
    return json.dumps(document, sort_keys=True)


def test_journal_overhead_and_resume_skip(tmp_path, show, benchmark):
    cold_report, cold_s = _run(tmp_path / "cold")
    shard_s = sum(e.duration_s for e in cold_report.entries.values())
    overhead = cold_report.journal_write_s / shard_s

    resumed_report, resume_s = _run(tmp_path / "cold", resume=True)
    skip = 1.0 - resume_s / cold_s

    show("BENCH-CAMPAIGN — WAL overhead and resume payoff",
         [("shards", len(_spec())),
          ("cold run (ms)", f"{cold_s * 1e3:7.1f}"),
          ("shard compute (ms)", f"{shard_s * 1e3:7.1f}"),
          ("journal writes (ms)", f"{cold_report.journal_write_s * 1e3:7.2f}"),
          ("journal records", cold_report.journal_records),
          ("journal overhead", f"{overhead * 100:6.2f}%"),
          ("resume (ms)", f"{resume_s * 1e3:7.1f}"),
          ("resume skips", f"{skip * 100:6.1f}%"),
          ("resumed shards", resumed_report.resumed_shards)],
         header=("metric", "value"))
    # pure replay: an ended campaign appends nothing, so the loop is
    # side-effect free however many times pytest-benchmark runs it
    benchmark(lambda: _run(tmp_path / "cold", resume=True))

    assert overhead < JOURNAL_OVERHEAD_BUDGET, (
        f"journal cost {overhead:.1%} of shard compute "
        f"(budget {JOURNAL_OVERHEAD_BUDGET:.0%})")
    assert resume_s < cold_s * RESUME_BUDGET, (
        f"resume took {resume_s * 1e3:.0f}ms vs cold {cold_s * 1e3:.0f}ms; "
        f"the journal must skip ≥{1 - RESUME_BUDGET:.0%} of completed work")
    assert resumed_report.resumed_shards == len(_spec())


def test_reports_are_byte_identical_across_runs_and_resume(tmp_path, show):
    first, _ = _run(tmp_path / "a")
    second, _ = _run(tmp_path / "b")
    resumed, _ = _run(tmp_path / "a", resume=True)
    documents = [_bytes(first), _bytes(second), _bytes(resumed)]
    assert documents[0] == documents[1] == documents[2]
    show("BENCH-CAMPAIGN — determinism",
         [("runs compared", "2 cold + 1 resumed"),
          ("document bytes", len(documents[0])),
          ("byte-identical", "yes")],
         header=("property", "value"))
