"""Crash-safe, resumable campaign engine over the repro tool fleet.

``repro.campaign`` runs ``(tool, scenario, plan, seed)`` shard
matrices across ``chaos``, ``sentinel``, ``redteam``, ``flow`` and
``lint``, and the paper experiments behind ``python -m repro run`` —
and applies the paper's graceful-degradation discipline to
the harness itself:

* :mod:`repro.campaign.spec` — shard/campaign matrices with stable,
  content-derived identities;
* :mod:`repro.campaign.journal` — the append-only write-ahead journal
  every scheduling decision hits before the engine acts on it, fsynced
  once per scheduler pass;
* :mod:`repro.campaign.supervisor` — heartbeat-supervised workers with
  a one-shard lookahead, hang detection, remaining-budget restarts and
  poison-shard quarantine; the repo's one worker pool;
* :mod:`repro.campaign.shard` — worker-side tool execution, the
  per-worker memo of static shards, and the canonical result digest;
* :mod:`repro.campaign.experiment` — worker-side execution of one
  paper experiment (``CampaignEngine(execute=experiment_executor(...))``),
  memoized by the content-addressed :mod:`repro.campaign.cache`;
* :mod:`repro.campaign.engine` — the journal-driven scheduler and the
  resume path (``python -m repro campaign resume <id>``);
* :mod:`repro.campaign.report` — the deterministic report whose bytes
  a resumed campaign must reproduce exactly.
"""

from repro.campaign.cache import ResultCache
from repro.campaign.engine import (
    CampaignEngine,
    CampaignError,
    default_journal_root,
    list_campaigns,
    load_campaign,
    plan_worker_faults,
)
from repro.campaign.journal import (
    Journal,
    JournalCorrupt,
    JournalState,
    read_records,
    replay,
)
from repro.campaign.report import (
    CAMPAIGN_SCHEMA_VERSION,
    CAMPAIGN_TOOL_NAME,
    CampaignReport,
    SchemaError,
    ShardEntry,
    validate_campaign_dict,
)
from repro.campaign.experiment import experiment_executor, experiment_spec
from repro.campaign.shard import execute_shard, result_digest
from repro.campaign.spec import CampaignSpec, CampaignTool, ShardSpec
from repro.campaign.supervisor import ShardOutcome, Supervisor

__all__ = [
    "CAMPAIGN_SCHEMA_VERSION",
    "CAMPAIGN_TOOL_NAME",
    "CampaignEngine",
    "CampaignError",
    "CampaignReport",
    "CampaignSpec",
    "CampaignTool",
    "Journal",
    "JournalCorrupt",
    "JournalState",
    "ResultCache",
    "SchemaError",
    "ShardEntry",
    "ShardOutcome",
    "ShardSpec",
    "Supervisor",
    "default_journal_root",
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
