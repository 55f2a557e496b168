"""Crash-safe, resumable campaign engine over the repro tool fleet.

``repro.campaign`` runs ``(tool, scenario, plan, seed)`` shard
matrices across ``chaos``, ``sentinel``, ``redteam``, ``flow`` and
``lint``, and the paper experiments behind ``python -m repro run`` —
and applies the paper's graceful-degradation discipline to
the harness itself:

* :mod:`repro.campaign.spec` — shard/campaign matrices with stable,
  content-derived identities;
* :mod:`repro.campaign.journal` — the append-only write-ahead journal
  every scheduling decision hits before the engine acts on it, always
  fsynced, once per scheduler pass;
* :mod:`repro.campaign.supervisor` — heartbeat-supervised workers with
  a one-shard lookahead, hang detection, remaining-budget restarts and
  poison-shard quarantine; the repo's one worker pool, which hands each
  terminal outcome to its one ``on_outcome`` callback;
* :mod:`repro.campaign.shard` — worker-side tool execution, and the one
  :func:`~repro.campaign.shard.payload` builder every worker function
  returns through, which ships each result as canonical JSON text with
  its digest;
* :mod:`repro.campaign.experiment` — worker-side execution of one
  paper experiment (``CampaignEngine(execute=experiment_executor(...))``),
  memoized by the content-addressed :mod:`repro.campaign.cache`;
* :mod:`repro.campaign.engine` — the journal-driven scheduler, which
  settles repeated static shards from its own memo and builds every
  report entry from the journal record that settled its shard, live or
  replayed, and the resume path (``python -m repro campaign resume <id>``);
* :mod:`repro.campaign.report` — the deterministic report whose bytes
  a resumed campaign must reproduce exactly.
"""

from repro.campaign.cache import ResultCache
from repro.campaign.engine import (
    CampaignEngine,
    CampaignError,
    list_campaigns,
    load_campaign,
    plan_worker_faults,
)
from repro.campaign.journal import (
    Journal,
    JournalCorrupt,
    read_records,
    replay,
)
from repro.campaign.report import (
    CampaignReport,
    SchemaError,
    ShardEntry,
    validate_campaign_dict,
)
from repro.campaign.experiment import experiment_executor, experiment_spec
from repro.campaign.shard import execute_shard, result_digest
from repro.campaign.spec import CampaignSpec, CampaignTool, ShardSpec

__all__ = [
    "CampaignEngine",
    "CampaignError",
    "CampaignReport",
    "CampaignSpec",
    "CampaignTool",
    "Journal",
    "JournalCorrupt",
    "ResultCache",
    "SchemaError",
    "ShardEntry",
    "ShardSpec",
    "execute_shard",
    "experiment_executor",
    "experiment_spec",
    "list_campaigns",
    "load_campaign",
    "plan_worker_faults",
    "read_records",
    "replay",
    "result_digest",
    "validate_campaign_dict",
]
