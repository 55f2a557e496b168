"""Shard and campaign specifications for the resumable campaign engine.

A *shard* is the engine's unit of work and of crash recovery: one
``(tool, scenario, plan, seed)`` cell of a campaign matrix, executed to
completion inside a supervised worker process and journaled as a single
write-ahead record.  Everything a worker needs to execute the shard —
and everything the resume path needs to decide whether it already ran —
lives in the :class:`ShardSpec`, so a shard is re-executable from its
spec alone on any attempt, in any process, before or after a crash.

A :class:`CampaignSpec` is an ordered matrix of shards plus a stable
identity: the campaign id is derived from the canonical JSON of the
shard list (or pinned explicitly), so the same matrix always maps to
the same journal directory and ``python -m repro campaign resume <id>``
can find it after the scheduling process died.

Determinism contract: shard ids are total-ordered strings, the matrix
is stored sorted, and nothing in a spec depends on wall-clock state —
the final campaign report is assembled purely from
``(spec, result document)`` pairs, which is what makes a resumed
campaign byte-identical to an uninterrupted one.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

from repro.faults.plan import DEFAULT_DURATION

__all__ = ["CampaignTool", "ShardSpec", "CampaignSpec", "PLAN_TOOLS", "STATIC_PLAN",
           "EXPERIMENT_TOOL", "canonical_json"]

#: The canonical encoding: sorted keys, no whitespace (one encoder, built
#: once).  It fixes campaign ids, result digests and journal lines alike.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

#: The plan slot recorded for tools that do not consume a fault plan.
STATIC_PLAN = "-"


class CampaignTool(str, Enum):
    """The analysis/operations tools a campaign shard can run."""

    CHAOS = "chaos"
    SENTINEL = "sentinel"
    REDTEAM = "redteam"
    FLOW = "flow"
    LINT = "lint"

    def __str__(self) -> str:
        return self.value


#: Tools whose shards consume a fault plan + virtual-clock duration.
PLAN_TOOLS = frozenset({CampaignTool.CHAOS, CampaignTool.SENTINEL})

#: The tool label of a paper-experiment shard (``scenario`` is the
#: experiment id, ``seed`` the base seed).  It is static, and it stays
#: outside :class:`CampaignTool`, so ``campaign run --tools all`` and
#: every matrix built from ``list(CampaignTool)`` leave it out.
EXPERIMENT_TOOL = "experiment"


@dataclass(frozen=True)
class ShardSpec:
    """One campaign matrix cell: what to run, against what, how seeded.

    Attributes:
        tool: which analyzer/campaign tool the shard runs, or
            :data:`EXPERIMENT_TOOL`.
        scenario: the shipped scenario name the tool targets.
        plan: fault-plan name for plan-driven tools (:data:`PLAN_TOOLS`);
            pinned to :data:`STATIC_PLAN` for the static analyzers.
        seed: the shard's base seed (threaded into every rng stream the
            tool derives).
        duration: campaign length in virtual-clock ticks for plan-driven
            tools; pinned to 0 for the static analyzers.
    """

    tool: CampaignTool | str
    scenario: str
    plan: str = STATIC_PLAN
    seed: int = 0
    duration: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.tool, CampaignTool) \
                and self.tool != EXPERIMENT_TOOL:
            raise ValueError(f"unknown shard tool {self.tool!r}")
        if not self.scenario:
            raise ValueError("a shard needs a scenario name")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.tool in PLAN_TOOLS:
            if self.plan == STATIC_PLAN or not self.plan:
                raise ValueError(
                    f"{self.tool_name} shards need a fault plan name")
            if self.duration < 1:
                raise ValueError(
                    f"{self.tool_name} shards need a duration >= 1 tick")
        else:
            if self.plan != STATIC_PLAN:
                raise ValueError(
                    f"{self.tool_name} is static; plan must be "
                    f"{STATIC_PLAN!r}")
            if self.duration != 0:
                raise ValueError(
                    f"{self.tool_name} is static; duration must be 0")

    @property
    def tool_name(self) -> str:
        """The tool's label: a :class:`CampaignTool` value, or
        :data:`EXPERIMENT_TOOL`."""
        return str(self.tool)

    @property
    def shard_id(self) -> str:
        """The total-ordered, human-readable shard identity."""
        return (f"{self.tool_name}/{self.scenario}/{self.plan}"
                f"/s{self.seed}")

    def to_dict(self) -> dict:
        """JSON-ready representation (stable key order)."""
        return {
            "id": self.shard_id,
            "tool": self.tool_name,
            "scenario": self.scenario,
            "plan": self.plan,
            "seed": self.seed,
            "duration": self.duration,
        }

    @classmethod
    def from_dict(cls, entry: dict) -> "ShardSpec":
        """Rebuild a spec from :meth:`to_dict` output (journal replay)."""
        try:
            tool = entry["tool"] if entry["tool"] == EXPERIMENT_TOOL \
                else CampaignTool(entry["tool"])
        except (KeyError, ValueError):
            raise ValueError(f"bad shard tool in {entry!r}") from None
        spec = cls(tool=tool, scenario=str(entry["scenario"]),
                   plan=str(entry["plan"]), seed=int(entry["seed"]),
                   duration=int(entry["duration"]))
        recorded = entry.get("id")
        if recorded is not None and recorded != spec.shard_id:
            raise ValueError(f"shard id {recorded!r} does not match its "
                             f"fields ({spec.shard_id!r})")
        return spec


@dataclass(frozen=True)
class CampaignSpec:
    """A named, ordered shard matrix with a content-derived identity."""

    shards: tuple[ShardSpec, ...]
    name: str = ""
    _by_id: dict[str, ShardSpec] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.shards:
            raise ValueError("a campaign needs at least one shard")
        ids = [shard.shard_id for shard in self.shards]
        by_id = dict(zip(ids, self.shards))
        if len(by_id) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate shard id(s): {', '.join(dupes)}")
        if ids != sorted(ids):
            raise ValueError("shards must be sorted by shard id "
                             "(use CampaignSpec.matrix)")
        object.__setattr__(self, "_by_id", by_id)

    @property
    def campaign_id(self) -> str:
        """The explicit name, or a digest of the canonical shard list."""
        if self.name:
            return self.name
        material = canonical_json([shard.to_dict() for shard in self.shards])
        return hashlib.sha256(material.encode()).hexdigest()[:12]

    def __len__(self) -> int:
        return len(self.shards)

    def shard(self, shard_id: str) -> ShardSpec:
        """Look up a shard by id; raises ``KeyError`` when unknown."""
        try:
            return self._by_id[shard_id]
        except KeyError:
            raise KeyError(f"unknown shard {shard_id!r}") from None

    def to_dict(self) -> dict:
        return {
            "id": self.campaign_id,
            "name": self.name,
            "shards": [shard.to_dict() for shard in self.shards],
        }

    @classmethod
    def from_dict(cls, entry: dict) -> "CampaignSpec":
        """Rebuild a campaign from :meth:`to_dict` output."""
        shards = tuple(ShardSpec.from_dict(s) for s in entry["shards"])
        spec = cls(shards=shards, name=str(entry.get("name", "")))
        recorded = entry.get("id")
        if recorded is not None and recorded != spec.campaign_id:
            raise ValueError(f"campaign id {recorded!r} does not match its "
                             f"shard list ({spec.campaign_id!r})")
        return spec

    @classmethod
    def matrix(cls, *, tools: Iterable[CampaignTool | str],
               scenarios: Sequence[str],
               plans: Sequence[str] = ("baseline",),
               seeds: Sequence[int] = (0,),
               duration: int = DEFAULT_DURATION,
               name: str = "") -> "CampaignSpec":
        """Build the sorted cross product of a campaign matrix.

        Plan-driven tools get one shard per ``(scenario, plan, seed)``;
        static analyzers collapse the plan axis (one shard per
        ``(scenario, seed)``).
        """
        if not scenarios:
            raise ValueError("a campaign matrix needs at least one scenario")
        if not plans:
            raise ValueError("a campaign matrix needs at least one plan")
        if not seeds:
            raise ValueError("a campaign matrix needs at least one seed")
        shards: list[ShardSpec] = []
        for raw in tools:
            tool = CampaignTool(raw)
            for scenario in scenarios:
                for seed in seeds:
                    if tool in PLAN_TOOLS:
                        for plan in plans:
                            shards.append(ShardSpec(
                                tool=tool, scenario=scenario, plan=plan,
                                seed=seed, duration=duration))
                    else:
                        shards.append(ShardSpec(
                            tool=tool, scenario=scenario, seed=seed))
        if not shards:
            raise ValueError("a campaign matrix needs at least one tool")
        shards.sort(key=lambda shard: shard.shard_id)
        return cls(shards=tuple(shards), name=name)
