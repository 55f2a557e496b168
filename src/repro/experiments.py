"""Experiment registry: map experiment ids to their bench targets.

The reproduction's per-figure experiments live as pytest-benchmark
files; this registry gives them stable ids (matching DESIGN.md's
experiment index) so the ``python -m repro`` CLI and downstream tooling
can enumerate and run them without knowing the file layout;
:func:`format_table` renders the tables every bench shows and
:func:`best_of` times the kernels the tool benches put in them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

__all__ = ["Experiment", "EXPERIMENTS", "benchmarks_dir", "best_of", "format_table"]


@dataclass(frozen=True)
class Experiment:
    """One reproducible experiment."""

    exp_id: str
    paper_artifact: str
    description: str
    bench_file: str


EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment("FIG1", "Fig. 1", "layered architecture: threat/defense inventory",
               "bench_fig1_layers.py"),
    Experiment("FIG2", "Fig. 2", "UWB HRP/LRP secure ranging + PKES relay + 5G V-Range",
               "bench_fig2_uwb.py"),
    Experiment("FIG3", "Fig. 3", "zonal IVN latency matrix + attack surface",
               "bench_fig3_ivn.py"),
    Experiment("TAB1", "Table I", "security protocol per-frame overhead table",
               "bench_tab1_protocols.py"),
    Experiment("FIG4", "Fig. 4", "scenario S1: SECOC + MACsec",
               "bench_fig4_s1.py"),
    Experiment("FIG5", "Fig. 5", "scenario S2: MACsec end-to-end vs point-to-point",
               "bench_fig5_s2.py"),
    Experiment("FIG6", "Fig. 6", "scenario S3: CANAL + end-to-end MACsec",
               "bench_fig6_s3.py"),
    Experiment("FIG7", "Fig. 7", "SDV trust: SSI reconfiguration + PKI-vs-SSI charging",
               "bench_fig7_sdv.py"),
    Experiment("FIG8", "Fig. 8", "CARIAD kill chain + mitigations + privacy damage",
               "bench_fig8_killchain.py"),
    Experiment("FIG9", "Fig. 9", "MaaS SoS: STRIDE, cascades, responsibility",
               "bench_fig9_sos.py"),
    Experiment("EXP-C1", "§VII-A", "intersection competition and regulation",
               "bench_collab_competition.py"),
    Experiment("EXP-C2", "§VII-B", "internal-attacker detection vs redundancy",
               "bench_collab_detection.py"),
    Experiment("EXP-R1", "§VIII", "layered-defense ablation + response escalation",
               "bench_remarks_defense.py"),
    Experiment("ABL-1", "§II-A", "HRP receiver threshold ablation",
               "bench_abl_hrp_threshold.py"),
    Experiment("ABL-2", "§III-A", "SECOC MAC truncation ablation",
               "bench_abl_mac_trunc.py"),
    Experiment("ABL-3", "§V-C", "attack-surface minimization ablation",
               "bench_abl_surface.py"),
    Experiment("EXT-1", "§VIII", "bus-flood DoS detect→respond loop",
               "bench_ext_dos_response.py"),
    Experiment("EXT-2", "ref [7]", "Message Time-of-Arrival Codes",
               "bench_ext_mtac.py"),
    Experiment("EXT-3", "refs [54],[34]", "threshold access control + offline tokens",
               "bench_ext_access_tokens.py"),
    Experiment("EXT-4", "ref [45]", "regulatory compliance audit",
               "bench_ext_compliance.py"),
    Experiment("EXT-5", "ref [53]", "PTP delay attack + PTPsec detection",
               "bench_ext_timesync.py"),
    Experiment("EXT-6", "§II-B", "collision-avoidance spoofing vs fusion policy",
               "bench_ext_collision.py"),
    Experiment("EXT-7", "ref [49]", "camera image-pipeline coverage",
               "bench_ext_imaging.py"),
    Experiment("EXT-8", "§V-C", "attack-graph reasoning + gateway containment",
               "bench_ext_attackgraph.py"),
    Experiment("BENCH-OBS", "§VIII", "observability-layer overhead on the hot paths",
               "bench_obs_overhead.py"),
    Experiment("BENCH-RUN", "§VIII", "experiment-shard parallel speedup + warm-cache cost",
               "bench_runner.py"),
    Experiment("BENCH-FLOW", "§V-C", "whole-system taint analysis cost per scenario",
               "bench_flow.py"),
    Experiment("BENCH-FAULTS", "§VIII", "fault-injector overhead + chaos campaign cost",
               "bench_faults.py"),
    Experiment("BENCH-REDTEAM", "§VIII", "attack-campaign planning cost + output stability",
               "bench_redteam.py"),
    Experiment("BENCH-SENTINEL", "§VIII", "streaming detection cost + alarm latency gates",
               "bench_sentinel.py"),
    Experiment("BENCH-KERNELS", "§VIII", "batched hot-path kernels vs scalar references",
               "bench_kernels.py"),
    Experiment("BENCH-AUDIT", "§VIII", "self-audit engine cost + output stability",
               "bench_audit.py"),
    Experiment("BENCH-CAMPAIGN", "§VIII", "campaign journal overhead + resume skip ratio",
               "bench_campaign.py"),
)


def benchmarks_dir() -> Path:
    """The repository's benchmarks directory (resolved from this file)."""
    return Path(__file__).resolve().parents[2] / "benchmarks"


def format_table(title: str, rows: list[tuple],
                 header: tuple | None = None) -> str:
    """Render a titled, aligned table; ragged rows (and header) are padded
    with empty cells to the widest, so nothing is dropped and nothing raises."""
    table = ([tuple(header)] if header else []) + [tuple(row) for row in rows]
    lines = [f"\n=== {title} ==="]
    if table:
        columns = max(len(row) for row in table)
        padded = [tuple(str(cell) for cell in row) + ("",) * (columns - len(row))
                  for row in table]
        widths = [max(len(row[i]) for row in padded) for i in range(columns)]
        for idx, row in enumerate(padded):
            lines.append("  ".join(cell.ljust(width)
                                   for cell, width in zip(row, widths)).rstrip())
            if header and idx == 0:
                lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def best_of(fn: Callable[[], object], repeats: int = 5) -> float:
    """Minimum wall time of ``fn()`` over ``repeats`` runs (noise-robust)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def find(exp_id: str) -> Experiment:
    """Look up an experiment by id (case-insensitive)."""
    wanted = exp_id.upper()
    for experiment in EXPERIMENTS:
        if experiment.exp_id == wanted:
            return experiment
    raise KeyError(f"unknown experiment {exp_id!r}; see `python -m repro list`")
