"""Compare two sets of end-to-end benchmark runs.

    python benchmarks/e2e/compare.py BASE.jsonl HEAD.jsonl

Each file holds the output of ``run.py`` runs (untraced), one record
line per run; other lines are ignored.  Runs should alternate between
the parent (BASE) and the change (HEAD), so the i-th runs of the two
files form a pair.  One row is printed per (workload, metric):

* each side's median and quartiles, and the change in the median as a
  share of the parent's, signed so that positive is worse;
* the share of pairs the change wins (ties count for neither side);
* the verdict, judged against the metric's bound in ``BENCHMARK.json``:
  ``regressed`` when the median is worse by more than the bound;
  ``improved`` when the change wins at least 9 of 10 pairs and the
  medians differ by more than the parent's quartile spread;
  ``unresolved`` when the parent's quartile spread is wider than the
  bound and not every change run beats (or, for a regression, loses to)
  every parent run; ``unchanged`` otherwise.

A ``fail_ratio`` row per workload compares failed / attempted ops; any
rise is a regression.  The exit status is 1 when any row regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
WIN_SHARE = 0.9


@dataclass
class Row:
    workload: str
    metric: str
    base: tuple[float, float, float]    # (q1, median, q3)
    head: tuple[float, float, float]
    worse_by: float                     # share of the parent's median; > 0 is worse
    wins: str
    verdict: str


def read_records(path: str | Path) -> list[dict]:
    """The untraced run records in a file of ``run.py`` output."""
    records = []
    for line in Path(path).read_text().splitlines():
        if not line.startswith("{"):
            continue
        record = json.loads(line)
        if "workload" in record and record.get("trace") == 0:
            records.append(record)
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _verdict(base: list[float], head: list[float], lower_better: bool,
             bound: float) -> tuple[float, str, str]:
    sign = 1.0 if lower_better else -1.0
    q1, median, q3 = quartiles(base)
    head_median = quartiles(head)[1]
    worse_by = sign * (head_median - median) / median

    def better(h: float, b: float) -> bool:
        return sign * (h - b) < 0

    pairs = list(zip(base, head))
    won = sum(better(h, b) for b, h in pairs)
    beats_all = all(better(h, b) for h in head for b in base)
    loses_all = all(better(b, h) for h in head for b in base)
    noisy = (q3 - q1) / median > bound
    if worse_by > bound:
        verdict = "unresolved" if noisy and not loses_all else "regressed"
    elif (pairs and won >= WIN_SHARE * len(pairs) and worse_by < 0
          and abs(head_median - median) > q3 - q1):
        verdict = "improved"
    elif noisy and not beats_all:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return worse_by, f"{won}/{len(pairs)}", verdict


def compare(base: list[dict], head: list[dict], spec: dict) -> list[Row]:
    """One row per (workload, end-to-end metric) plus a fail_ratio row."""
    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        base_runs = [r for r in base if r["workload"] == workload]
        head_runs = [r for r in head if r["workload"] == workload]
        if not base_runs or not head_runs:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base_values = [r["metrics"][name] for r in base_runs]
            head_values = [r["metrics"][name] for r in head_runs]
            worse_by, wins, verdict = _verdict(base_values, head_values,
                                               metric["better"] == "lower", metric["bound"])
            rows.append(Row(workload, name, quartiles(base_values), quartiles(head_values),
                            worse_by, wins, verdict))
        base_ratio = sum(r["failed"] for r in base_runs) / sum(r["attempted"] for r in base_runs)
        head_ratio = sum(r["failed"] for r in head_runs) / sum(r["attempted"] for r in head_runs)
        rows.append(Row(workload, "fail_ratio", (base_ratio,) * 3, (head_ratio,) * 3,
                        head_ratio - base_ratio, "-",
                        "regressed" if head_ratio > base_ratio else "unchanged"))
    return rows


def render(rows: list[Row]) -> str:
    lines = [f"{'workload':<18}{'metric':<13}{'base q1/med/q3':>30}"
             f"{'head q1/med/q3':>30}{'worse by':>10}{'wins':>7}  verdict"]
    for row in rows:
        base = "/".join(f"{v:.4g}" for v in row.base)
        head = "/".join(f"{v:.4g}" for v in row.head)
        lines.append(f"{row.workload:<18}{row.metric:<13}{base:>30}{head:>30}"
                     f"{row.worse_by:>+10.2%}{row.wins:>7}  {row.verdict}")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK_JSON.read_text())
    rows = compare(read_records(argv[0]), read_records(argv[1]), spec)
    print(render(rows))
    return 1 if any(row.verdict == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
