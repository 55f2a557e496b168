"""The timing loop, percentiles, pinned digests and provenance.

A workload module exposes ``NAME``, ``DIGEST_STEPS`` and
``build(seed) -> world``.  A world exposes ``step(i) -> Step``; one step
is one op timed from outside, or several ops that the world times itself
(a pass over the paper experiments, a campaign of shards).  A world may
also expose ``traced_step(i)`` (the step the traced phase runs instead),
with ``layer_metrics()`` and ``serial_ops_per_s()`` for its per-layer
metrics.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

REPO = Path(__file__).resolve().parents[2]
DIGESTS_FILE = Path(__file__).resolve().parent / "digests.json"

#: Builds per run; ``setup_s`` reports the median build.
SETUP_REPEATS = 3

#: The traced run keeps Chrome trace events for the steps that start
#: within this many leading ops.
TRACE_EVENT_OPS = 20

#: Latency samples an untraced run collects at least: 10 lie beyond p95.
MIN_SAMPLES = 200

#: Throughput and latency are medians over segments at least this long,
#: so a slow spell on a shared machine moves only the segments it covers.
WINDOW_S = 1.0

#: The calibration loop: fixed pure-Python work that shares no code with
#: the program, timed between segments.  ``CALIBRATION_REF_S`` is its time
#: on an unloaded core of the reference machine (see README.md); a segment
#: measured while the loop took longer is scaled down by the same factor,
#: so times are reported in reference seconds.
CALIBRATION_LOOPS = 30_000
CALIBRATION_REF_S = 0.0016


def calibrate() -> float:
    """Seconds the calibration loop takes now (best of three)."""
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        x = 0
        for i in range(CALIBRATION_LOOPS):
            x += i * i % 7
        best = min(best, perf_counter() - t0)
    return best


@dataclass
class Step:
    """What one step did: a verdict per op, plus bytes for the digest.

    ``latencies_s`` is ``None`` for a single op that the harness times
    from outside; otherwise it holds one latency per op.
    """

    oks: list[bool]
    material: bytes
    latencies_s: list[float] | None = None


@dataclass
class Segment:
    """Whole steps between two calibrations."""

    seconds: float              # measured wall time of the steps
    speed: float                # reference seconds per measured second
    ok: int                     # successful ops
    latencies_s: list[float]    # measured; a failed op is +inf


@dataclass
class Phase:
    """The outcome of one timed phase."""

    wall_s: float = 0.0
    steps: int = 0
    attempted: int = 0
    failed: int = 0
    step_digests: list[str] = field(default_factory=list)
    segments: list[Segment] = field(default_factory=list)

    def blocks(self, min_samples: int) -> list[tuple[float, int, list[float]]]:
        """Merge consecutive segments until each holds ``min_samples``
        latencies; returns (reference seconds, successful ops, reference
        latencies) per block.  A short tail is dropped unless it is all."""
        blocks = []
        seconds, ok, latencies = 0.0, 0, []
        for segment in self.segments:
            seconds += segment.seconds * segment.speed
            ok += segment.ok
            latencies.extend(lat * segment.speed for lat in segment.latencies_s)
            if len(latencies) >= min_samples:
                blocks.append((seconds, ok, latencies))
                seconds, ok, latencies = 0.0, 0, []
        return blocks or [(seconds, ok, latencies)]

    @property
    def speed(self) -> float:
        return statistics.median(segment.speed for segment in self.segments)

    @property
    def ops_per_s(self) -> float:
        """Median over the segments of successful ops per reference second."""
        return statistics.median(ok / seconds for seconds, ok, _ in self.blocks(0))

    def latency_ms(self, q: float) -> float:
        """Median over the blocks of each block's ``q`` latency: its median
        for ``q`` = 0.5, else its nearest-rank quantile.

        The median of a block averages the two middle samples, so when
        ops of different kinds meet at the middle (the paper experiments
        do) it does not jump between them from block to block."""
        blocks = self.blocks(min_samples_for(q))
        if q == 0.5:
            values = [statistics.median(lat) for _, _, lat in blocks]
        else:
            values = [nearest_rank(lat, q) for _, _, lat in blocks]
        return statistics.median(values) * 1e3


def min_samples_for(q: float) -> int:
    """Samples needed so that 10 lie beyond the ``q`` quantile."""
    return math.ceil(10 / (1.0 - q) - 1e-9)


def nearest_rank(samples: list[float], q: float) -> float:
    """Nearest-rank ``q`` quantile; refuses fewer than 10 samples beyond it.

    So p50 needs 20 samples, p95 needs 200 and p99 needs 1000.
    """
    n = len(samples)
    if n < min_samples_for(q):
        raise ValueError(f"p{q * 100:g} needs {min_samples_for(q)} samples, got {n}")
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q * n)) - 1]


def step_digest(material: bytes) -> str:
    return hashlib.sha256(material).hexdigest()[:16]


def pinned_digests(workload: str, seed: int) -> list[str] | None:
    """The pinned per-step digests for ``(workload, seed)``, if any."""
    if not DIGESTS_FILE.is_file():
        return None
    pins = json.loads(DIGESTS_FILE.read_text())
    return pins.get(workload, {}).get(str(seed))


def write_pin(workload: str, seed: int, digests: list[str]) -> None:
    pins = json.loads(DIGESTS_FILE.read_text()) if DIGESTS_FILE.is_file() else {}
    pins.setdefault(workload, {})[str(seed)] = digests
    DIGESTS_FILE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def run_phase(world, seconds: float, digest_steps: int, *, pins: list[str] | None,
              min_samples: int = 0, tracer=None, step=None) -> Phase:
    """Run whole steps until ``seconds`` have passed, the digest window is
    done and ``min_samples`` latencies are in (at least one step).

    The machine's speed is calibrated before the first step and after
    every ``WINDOW_S`` of steps.  A failed op counts as an infinite
    latency.  A step inside the digest window whose digest differs from
    the pinned one fails all its ops.
    """
    step = step or world.step
    # The calibration can only correct for the process it runs in; a world
    # whose ops run in worker processes reports raw times.
    measure = (lambda: CALIBRATION_REF_S) if getattr(world, "timed_in_workers", False) \
        else calibrate
    phase = Phase()
    start = perf_counter()
    deadline = start + seconds
    calibration = measure()
    segment = Segment(0.0, 0.0, 0, [])
    segment_start = perf_counter()
    i = 0
    while (i < max(digest_steps, 1) or perf_counter() < deadline
           or phase.attempted < min_samples):
        if tracer is not None:
            tracer.recording = phase.attempted < TRACE_EVENT_OPS
        t0 = perf_counter()
        result = step(i)
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.op_event(i, t0, dt)
        oks = list(result.oks)
        if i < digest_steps:
            digest = step_digest(result.material)
            phase.step_digests.append(digest)
            if pins is not None and (i >= len(pins) or pins[i] != digest):
                oks = [False] * len(oks)
        latencies = result.latencies_s if result.latencies_s is not None else [dt]
        segment.latencies_s.extend(lat if ok else math.inf
                                   for lat, ok in zip(latencies, oks))
        segment.ok += oks.count(True)
        phase.attempted += len(oks)
        phase.failed += oks.count(False)
        i += 1
        now = perf_counter()
        if now - segment_start >= WINDOW_S:
            calibration = _close(phase, segment, now - segment_start, calibration, measure)
            segment = Segment(0.0, 0.0, 0, [])
            segment_start = perf_counter()
    if segment.latencies_s:
        _close(phase, segment, perf_counter() - segment_start, calibration, measure)
    phase.wall_s = perf_counter() - start
    if tracer is not None:
        tracer.recording = False
    phase.steps = i
    return phase


def _close(phase: Phase, segment: Segment, seconds: float, before: float,
           measure) -> float:
    """Calibrate after a segment; returns the new calibration."""
    after = measure()
    segment.seconds = seconds
    segment.speed = CALIBRATION_REF_S / ((before + after) / 2)
    phase.segments.append(segment)
    return after


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def finite(value: float) -> float:
    """JSON has no infinity: a failed op's latency prints as the largest float."""
    return value if math.isfinite(value) else 1.7976931348623157e308


def end_to_end_metrics(phase: Phase, setup_s: float) -> dict:
    """The end-to-end metrics; ``setup_s`` in reference seconds."""
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (phase.ops_per_s, "1/s"),
        "op_p50_ms": (finite(phase.latency_ms(0.50)), "ms"),
        "op_p95_ms": (finite(phase.latency_ms(0.95)), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }


def median_setup(build, seed: int) -> tuple[object, float]:
    """Build the world ``SETUP_REPEATS`` times; returns the last and the median time."""
    times = []
    world = None
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        world = build(seed)
        times.append(perf_counter() - t0)
    return world, statistics.median(times)


def src_tree_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((REPO / "src").rglob("*.py")):
        digest.update(str(path.relative_to(REPO)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(seed: int) -> dict:
    import networkx
    import numpy

    return {"src_tree": src_tree_hash(), "python": platform.python_version(),
            "numpy": numpy.__version__, "networkx": networkx.__version__,
            "cpu_count": os.cpu_count(), "seed": seed}
