"""Runs the end-to-end benchmark.

    python benchmarks/e2e/run.py <workload|all> --seed N [--seconds S] [--trace]
    python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Each workload runs in a fresh interpreter, as a closed loop from this one
process (``tool-campaign`` adds two campaign worker processes).  It runs
whole ops until ``--seconds`` have passed, checks every op's output and
prints two JSON lines: a record (metrics, provenance, output digest) and,
last, ``{"correct", "attempted", "failed", "metrics"}``.

Untraced runs report the end-to-end metrics, with times in reference
seconds (see ``harness.calibrate``).  ``--trace`` first runs the
untraced phase, then a second phase on a fresh world under the layer
tracer, and reports the per-layer metrics; ``--trace-events FILE`` also
writes a Chrome trace of the first 20 ops.  ``--pin`` stores this run's
output digests as the pinned ones for its seed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import harness
from tracer import COUNTERS, LAYERS, UNATTRIBUTED, LayerTracer

#: Set-up is timed from here, before the workload imports ``repro``.
STARTED_CALIBRATION = harness.calibrate()
STARTED = perf_counter()

sys.path.insert(0, str(harness.REPO / "src"))

WORKLOADS = {
    "protected-traffic": "protected_traffic",
    "identity-trust": "identity_trust",
    "tool-campaign": "tool_campaign",
    "paper-figures": "paper_figures",
}
DEFAULT_SECONDS = 15
WORK_ROOT = harness.REPO / ".e2e-work"

COUNTER_METRICS = tuple(dict.fromkeys(COUNTERS.values()))
CAMPAIGN_METRICS = ("campaign.unique_result_ratio", "campaign.idle_worker_share",
                    "campaign.journal_write_share", "campaign.journal_records_per_shard",
                    "campaign.retries", "campaign.quarantined", "campaign.replay_share")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer in (*LAYERS, UNATTRIBUTED):
        units[f"{layer}.self_share"] = "ratio"
    for name in COUNTER_METRICS:
        units[f"{name}_per_op"] = "count"
    units["trace.wall_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    for name in CAMPAIGN_METRICS:
        units[name] = "ratio" if name.endswith(("ratio", "share")) else "count"
    return units


def run_workload(name: str, seed: int, seconds: float, *, trace: bool = False,
                 trace_events: str | None = None, pin: bool = False) -> dict:
    """Run one workload in this process; returns the record."""
    module = importlib.import_module(WORKLOADS[name])
    import_s = perf_counter() - STARTED
    world, build_s = harness.median_setup(module.build, seed)
    setup_speed = harness.CALIBRATION_REF_S / (
        (STARTED_CALIBRATION + harness.calibrate()) / 2)
    pins = None if pin else harness.pinned_digests(name, seed)
    phase = harness.run_phase(world, seconds, module.DIGEST_STEPS, pins=pins,
                              min_samples=0 if trace else harness.MIN_SAMPLES)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "attempted": phase.attempted, "failed": phase.failed,
              "steps": phase.steps, "digest": harness.step_digest(
                  "".join(phase.step_digests).encode()),
              "digest_pinned": None if pins is None
              else phase.step_digests == pins[:len(phase.step_digests)],
              "setup": {"import_s": import_s, "build_s": build_s, "speed": setup_speed},
              "speed": phase.speed}
    if pin:
        harness.write_pin(name, seed, phase.step_digests)
    if not trace:
        metrics = harness.end_to_end_metrics(phase, (import_s + build_s) * setup_speed)
    else:
        metrics, traced = traced_metrics(module, world, phase, seed, seconds, trace_events)
        record["attempted"] += traced.attempted
        record["failed"] += traced.failed
        record["traced_digest"] = harness.step_digest("".join(traced.step_digests).encode())
        record["traced_wall_s"] = traced.wall_s
    record["metrics"] = {key: value for key, (value, _) in metrics.items()}
    record["units"] = {key: unit for key, (_, unit) in metrics.items()}
    record["provenance"] = harness.provenance(seed)
    return record


def traced_metrics(module, world, untraced, seed: int, seconds: float,
                   trace_events: str | None):
    """The traced phase on a fresh world; returns (metrics, traced phase)."""
    values: dict[str, float] = {name: 0.0 for name in per_layer_units()}
    baseline_ops_per_s = untraced.ops_per_s
    replay_ok = True
    if hasattr(world, "layer_metrics"):
        campaign, replay_ok = world.layer_metrics()
        values.update(campaign)
        # in reference seconds, like the traced phase's rate
        baseline_ops_per_s = world.serial_ops_per_s() / untraced.speed
    fresh = module.build(seed)
    step = getattr(fresh, "traced_step", None)
    digest_steps = 0 if step is not None else module.DIGEST_STEPS
    pins = harness.pinned_digests(module.NAME, seed) if digest_steps else None
    tracer = LayerTracer()
    tracer.install()
    try:
        traced = harness.run_phase(fresh, seconds, digest_steps, pins=pins,
                                   tracer=tracer, step=step)
    finally:
        wall = tracer.uninstall()
    if not replay_ok:
        traced.failed += 1
        traced.attempted += 1
    ops = traced.attempted
    for layer, seconds_self in tracer.self_s.items():
        values[f"{layer}.self_share"] = seconds_self / wall
    for name in COUNTER_METRICS:
        values[f"{name}_per_op"] = tracer.counters[name] / ops
    values["trace.wall_s"] = wall
    values["trace.overhead_ratio"] = traced.ops_per_s / baseline_ops_per_s
    print(tracer.table(wall))
    if trace_events:
        Path(trace_events).write_text(json.dumps(tracer.chrome_trace()))
    units = per_layer_units()
    return {name: (values[name], units[name]) for name in units}, traced


def result_line(record: dict) -> str:
    metrics = {name: {"value": value, "unit": record["units"][name]}
               for name, value in record["metrics"].items()}
    return json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("name", nargs="?", choices=[*WORKLOADS, "all"],
                        help="workload to run, or all of them")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--trace-events", metavar="FILE")
    parser.add_argument("--pin", action="store_true",
                        help="store this run's output digests as the pinned ones")
    args = parser.parse_args(argv)
    args.workload = args.workload or args.name
    if args.workload is None:
        parser.error("name a workload")
    if args.trace_events and not args.trace:
        parser.error("--trace-events needs --trace")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        code = 0
        for name in WORKLOADS:
            command = [sys.executable, __file__, "--workload", name, "--seed",
                       str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
            code = max(code, subprocess.run(command, check=False).returncode)
        return code
    WORK_ROOT.mkdir(exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    os.environ["TMPDIR"] = tempfile.tempdir = run_dir
    try:
        record = run_workload(args.workload, args.seed, args.seconds, trace=bool(args.trace),
                              trace_events=args.trace_events, pin=args.pin)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(record))
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
