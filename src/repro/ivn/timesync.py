"""Secure time synchronization: PTP delay attacks and PTPsec-style
cyclic path asymmetry detection (paper §VIII, ref [53]).

Time-sensitive networking in vehicles synchronizes clocks with PTP; its
offset computation assumes *symmetric* path delays, so an attacker who
delays traffic in **one direction only** shifts the slave clock by half
the injected delay without breaking any cryptography — a pure
physical/logical-layer attack.  Finkenzeller et al. [53] (PTPsec) detect
and localize it using redundant paths: measured one-way delays around a
cycle must be direction-symmetric; an asymmetric link sticks out.

Model:

* :class:`SyncNetwork` — nodes + directional link delays;
* :func:`ptp_offset` — the standard two-step offset/delay computation
  over a path;
* :class:`DelayAttack` — adds delay to one direction of one link;
* :class:`CyclicAsymmetryDetector` — measures cycle traversal times in
  both directions; a residual above noise flags the attack, and probing
  individual cycles localizes the tampered link.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.rng import numpy_rng

__all__ = ["SyncNetwork", "DelayAttack", "PtpResult", "ptp_offset",
           "CyclicAsymmetryDetector", "AsymmetryVerdict"]


@dataclass
class SyncNetwork:
    """Directed link delays between nodes (seconds)."""

    jitter_s: float = 20e-9
    seed_label: str = "ptp"
    _delays: dict[tuple[str, str], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._rng = numpy_rng(self.seed_label)

    def add_link(self, a: str, b: str, delay_s: float) -> None:
        """A bidirectional link with symmetric nominal delay."""
        if delay_s <= 0:
            raise ValueError("link delay must be positive")
        self._delays[(a, b)] = delay_s
        self._delays[(b, a)] = delay_s

    def add_asymmetry(self, src: str, dst: str, extra_s: float) -> None:
        """Inject extra one-way delay (the attack primitive)."""
        if (src, dst) not in self._delays:
            raise KeyError(f"no link {src}->{dst}")
        self._delays[(src, dst)] += extra_s

    def one_way_delay(self, path: list[str], *, noisy: bool = True) -> float:
        """Propagation time along ``path`` (with jitter when ``noisy``)."""
        if len(path) < 2:
            raise ValueError("path needs at least two nodes")
        total = 0.0
        for a, b in zip(path, path[1:]):
            if (a, b) not in self._delays:
                raise KeyError(f"no link {a}->{b}")
            total += self._delays[(a, b)]
            if noisy:
                total += abs(float(self._rng.normal(0.0, self.jitter_s)))
        return total


@dataclass(frozen=True)
class DelayAttack:
    """Asymmetric delay injection on one directed link."""

    src: str
    dst: str
    extra_delay_s: float

    def apply(self, network: SyncNetwork) -> None:
        if self.extra_delay_s <= 0:
            raise ValueError("attack delay must be positive")
        network.add_asymmetry(self.src, self.dst, self.extra_delay_s)


@dataclass(frozen=True)
class PtpResult:
    """One PTP offset/delay measurement."""

    measured_offset_s: float
    measured_delay_s: float
    true_offset_s: float

    @property
    def offset_error_s(self) -> float:
        return self.measured_offset_s - self.true_offset_s


def ptp_offset(network: SyncNetwork, path: list[str], *,
               true_offset_s: float = 0.0) -> PtpResult:
    """The standard PTP computation over ``path`` (master first).

    t1: master send; t2 = t1 + d_ms + offset (slave clock);
    t3: slave send; t4 = t3 - offset + d_sm (master clock).
    offset = ((t2-t1) - (t4-t3)) / 2, which is exact only if
    d_ms == d_sm — the symmetry assumption the attack breaks.
    """
    d_ms = network.one_way_delay(path)
    d_sm = network.one_way_delay(list(reversed(path)))
    t1 = 0.0
    t2 = t1 + d_ms + true_offset_s
    t3 = t2 + 1e-6
    t4 = t3 - true_offset_s + d_sm
    measured_offset = ((t2 - t1) - (t4 - t3)) / 2.0
    measured_delay = ((t2 - t1) + (t4 - t3)) / 2.0
    return PtpResult(measured_offset, measured_delay, true_offset_s)


@dataclass(frozen=True)
class AsymmetryVerdict:
    """Cyclic-asymmetry detector output for one cycle."""

    cycle: tuple[str, ...]
    residual_s: float
    threshold_s: float

    @property
    def attack_detected(self) -> bool:
        return abs(self.residual_s) > self.threshold_s


class CyclicAsymmetryDetector:
    """PTPsec-style detection over redundant network cycles.

    For a cycle C, the forward traversal time equals the backward
    traversal time when every link is symmetric; an attacked link adds
    its asymmetry to exactly one direction, so the residual
    ``forward - backward`` reveals (and, across multiple cycles,
    localizes) the attack.
    """

    def __init__(self, network: SyncNetwork, *,
                 threshold_s: float | None = None,
                 n_probes: int = 8) -> None:
        if n_probes < 1:
            raise ValueError("need at least one probe")
        self.network = network
        # Jitter accumulates per hop per probe; 6 sigma over the mean of
        # n probes is a comfortable noise bound.
        self.threshold_s = (threshold_s if threshold_s is not None
                            else 6.0 * network.jitter_s)
        self.n_probes = n_probes

    def measure_cycle(self, cycle: list[str]) -> AsymmetryVerdict:
        """Probe one cycle (first node repeated at the end implicitly)."""
        if len(cycle) < 3:
            raise ValueError("a cycle needs at least three nodes")
        loop = list(cycle) + [cycle[0]]
        forward = sum(self.network.one_way_delay(loop)
                      for _ in range(self.n_probes)) / self.n_probes
        backward = sum(self.network.one_way_delay(list(reversed(loop)))
                       for _ in range(self.n_probes)) / self.n_probes
        return AsymmetryVerdict(tuple(cycle), forward - backward, self.threshold_s)

    def localize(self, cycles: list[list[str]]) -> set[frozenset[str]]:
        """Suspicious (undirected) links: intersection logic over cycles.

        A link is suspect when *every* flagged cycle contains it and no
        clean cycle does.
        """
        flagged = [set(self._links(c)) for c in cycles
                   if self.measure_cycle(c).attack_detected]
        clean = [set(self._links(c)) for c in cycles
                 if not self.measure_cycle(c).attack_detected]
        if not flagged:
            return set()
        suspects = set.intersection(*flagged)
        for clean_links in clean:
            suspects -= clean_links
        return suspects

    @staticmethod
    def _links(cycle: list[str]) -> list[frozenset[str]]:
        loop = list(cycle) + [cycle[0]]
        return [frozenset((a, b)) for a, b in zip(loop, loop[1:])]
