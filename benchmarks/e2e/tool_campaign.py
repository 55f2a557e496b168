"""``tool-campaign``: the whole tool fleet through the campaign engine.

One step runs exactly the matrix that::

    python -m repro campaign run --tools all --scenarios all \\
        --plans baseline,severe --seeds <29 seeds> --duration 300 --jobs 2

builds (1015 shards), in-process through ``CampaignEngine(spec, jobs=2,
journal_root=<fresh dir>).run()`` with fsync on.  One op is one shard;
its latency is the shard's compute time as the engine records it.  Each
step draws 29 fresh seeds, so the runtime shards (chaos, sentinel,
redteam) vary while the static ones (lint, flow) repeat, just as the
CLI generates them: a dedup or caching change shows here and nowhere
else.

The traced phase runs the first campaign's shards serially through
``repro.campaign.execute_shard``, in a seeded shuffled order so that any
prefix is a fair mix of tools.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import tempfile
from time import perf_counter

from harness import Step

from repro.campaign import (CampaignEngine, CampaignSpec, CampaignTool,
                            SchemaError, execute_shard, validate_campaign_dict)
from repro.lint import scenario_names

NAME = "tool-campaign"
DIGEST_STEPS = 1
JOBS = 2
SEEDS_PER_CAMPAIGN = 29
PLANS = ("baseline", "severe")
DURATION = 300


def campaign_seeds(seed: int, index: int) -> list[int]:
    """The 29 shard seeds of campaign ``index`` of a run."""
    rng = random.Random(f"tool-campaign:{seed}:{index}")
    return sorted(rng.sample(range(1_000_000), SEEDS_PER_CAMPAIGN))


def campaign_spec(seed: int, index: int) -> CampaignSpec:
    return CampaignSpec.matrix(tools=list(CampaignTool),
                               scenarios=sorted(scenario_names()), plans=PLANS,
                               seeds=campaign_seeds(seed, index), duration=DURATION)


class World:
    #: Shards run, and are timed, in the engine's worker processes.
    timed_in_workers = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        first = campaign_spec(seed, 0)
        # Warm-up: one shard per tool imports every lazily loaded tool
        # module before the engine forks its workers.
        for tool in CampaignTool:
            shard = next(s for s in first.shards if s.tool is tool)
            execute_shard(shard.to_dict())
        order = list(first.shards)
        random.Random(f"tool-campaign:{seed}:serial").shuffle(order)
        self.serial_order = [shard.to_dict() for shard in order]
        # Per campaign: wall, journal write time, journal records, and per
        # shard (compute seconds, attempts, status, result digest).  The
        # reports themselves are dropped, so memory does not grow with the
        # number of campaigns a run fits in.
        self.campaigns: list[tuple[float, float, int, list[tuple]]] = []
        self.first_journal_root = ""
        self.first_report_digest = ""

    def step(self, i: int) -> Step:
        spec = campaign_spec(self.seed, i)
        root = tempfile.mkdtemp(prefix="campaign-")
        report = CampaignEngine(spec, jobs=JOBS, journal_root=root).run()
        document = report.to_json_dict()
        material = json.dumps(document, sort_keys=True).encode()
        entries = [report.entries[shard.shard_id] for shard in spec.shards]
        try:
            validate_campaign_dict(document)
            oks = [entry.status == "ok" for entry in entries]
        except SchemaError:
            oks = [False] * len(entries)
        if i == 0:
            self.first_journal_root = root
            self.first_report_digest = hashlib.sha256(material).hexdigest()
        else:
            shutil.rmtree(root)
        self.campaigns.append((report.wall_s, report.journal_write_s, report.journal_records,
                               [(e.duration_s, e.attempts, e.status, e.digest)
                                for e in entries]))
        return Step(oks, material, [entry.duration_s for entry in entries])

    def traced_step(self, i: int) -> Step:
        shard = self.serial_order[i % len(self.serial_order)]
        payload = execute_shard(shard)
        return Step([payload["status"] == "ok"],
                    f"{shard['id']}:{payload['digest']}".encode())

    def replay(self) -> tuple[float, bool]:
        """Resume the first finished campaign; returns its time and whether
        the replayed report is byte-identical to the original."""
        spec = campaign_spec(self.seed, 0)
        t0 = perf_counter()
        report = CampaignEngine(spec, jobs=JOBS, journal_root=self.first_journal_root).run(
            resume=True)
        replay_s = perf_counter() - t0
        material = json.dumps(report.to_json_dict(), sort_keys=True).encode()
        return replay_s, hashlib.sha256(material).hexdigest() == self.first_report_digest

    def _shards(self) -> list[tuple]:
        return [shard for *_, shards in self.campaigns for shard in shards]

    def serial_ops_per_s(self) -> float:
        """Untraced single-process shard rate: shards over their compute time."""
        shards = self._shards()
        return len(shards) / sum(duration for duration, *_ in shards)

    def layer_metrics(self) -> tuple[dict[str, float], bool]:
        """Campaign-layer metrics from the untraced parallel campaigns, and
        whether resuming the first one replays a byte-identical report."""
        shards = self._shards()
        wall = sum(campaign[0] for campaign in self.campaigns)
        compute = sum(duration for duration, *_ in shards)
        replay_s, identical = self.replay()
        return {
            "campaign.unique_result_ratio": len({digest for *_, digest in shards}) / len(shards),
            "campaign.idle_worker_share": (JOBS * wall - compute) / (JOBS * wall),
            "campaign.journal_write_share":
                sum(campaign[1] for campaign in self.campaigns) / wall,
            "campaign.journal_records_per_shard":
                sum(campaign[2] for campaign in self.campaigns) / len(shards),
            "campaign.retries": sum(attempts - 1 for _, attempts, _, _ in shards),
            "campaign.quarantined": sum(status == "quarantined" for _, _, status, _ in shards),
            "campaign.replay_share": replay_s / self.campaigns[0][0],
        }, identical


def build(seed: int) -> World:
    return World(seed)
