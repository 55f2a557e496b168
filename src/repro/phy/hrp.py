"""HRP-UWB ranging with Scrambled Timestamp Sequences (paper Fig. 2, §II-A).

The High Rate Pulse mode of IEEE 802.15.4z appends a **Secure Training
Sequence (STS)** — a cryptographically pseudorandom ±1 pulse sequence —
to the frame and measures time-of-flight on it.  Security rests on the
attacker not being able to predict the sequence; the paper (citing [4],
[8]) notes that a receiver that *naively* cross-correlates is still
vulnerable to ghost-peak injection, and that integrity checks at the
receiver restore security.

This module implements:

* :func:`generate_sts` — AES-CTR-based STS derivation (the DRBG role the
  standard assigns to AES);
* :class:`HrpReceiver` — correlation + leading-edge ToA, with an optional
  STS integrity check (normalized-correlation validation of the claimed
  first path, modeled after Luo et al. [4]);
* :class:`HrpRangingSession` — one full measurement over a channel with
  an optional attacker waveform, returning a :class:`RangingOutcome`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.crypto.aes import AES
from repro.phy.channel import Channel
from repro.phy.pulses import HRP_CONFIG, PhyConfig, build_pulse_train
from repro.phy.toa import ToaEstimate, cross_correlation, first_path_toa

__all__ = [
    "generate_sts",
    "RangingOutcome",
    "HrpReceiver",
    "HrpRangingSession",
]


def generate_sts(key: bytes, counter: int, length: int) -> np.ndarray:
    """Derive a ±1 STS of ``length`` pulses from an AES-CTR keystream.

    ``counter`` plays the role of the STS index / frame counter so each
    ranging round uses a fresh unpredictable sequence.
    """
    return _sts(AES(key), counter, length)


def _sts(cipher: AES, counter: int, length: int) -> np.ndarray:
    """:func:`generate_sts` under a cipher already keyed with the STS key."""
    if length <= 0:
        raise ValueError("STS length must be positive")
    stream = cipher.ctr_keystream(counter.to_bytes(16, "big"), (length + 7) // 8)
    bits = np.unpackbits(np.frombuffer(stream, dtype=np.uint8))[:length]
    return bits.astype(float) * 2.0 - 1.0


@dataclass(frozen=True)
class RangingOutcome:
    """Result of one HRP ranging measurement."""

    true_distance_m: float
    measured_distance_m: float
    accepted: bool
    integrity_ok: bool
    toa: ToaEstimate
    normalized_correlation: float

    @property
    def error_m(self) -> float:
        return self.measured_distance_m - self.true_distance_m

    @property
    def reduced(self) -> bool:
        """True when the measurement claims a distance shorter than reality
        by more than one sample of slack (a successful reduction)."""
        return self.error_m < -0.5


class HrpReceiver:
    """HRP receiver: correlate, back-search, optionally verify integrity.

    Args:
        config: PHY parameters.
        back_search_window: leading-edge search span in samples.
        threshold_ratio: leading-edge threshold (fraction of main peak).
        integrity_check: enable the normalized-correlation first-path
            validation ([4]); ``min_normalized_corr`` is its threshold.
    """

    def __init__(self, config: PhyConfig = HRP_CONFIG, *,
                 back_search_window: int = 64,
                 threshold_ratio: float = 0.35,
                 integrity_check: bool = True,
                 min_normalized_corr: float = 0.35) -> None:
        if not 0.0 < min_normalized_corr < 1.0:
            raise ValueError("min_normalized_corr must be in (0, 1)")
        self.config = config
        self.back_search_window = back_search_window
        self.threshold_ratio = threshold_ratio
        self.integrity_check = integrity_check
        self.min_normalized_corr = min_normalized_corr

    def estimate(self, received: np.ndarray, sts: np.ndarray) -> tuple[ToaEstimate, float, bool]:
        """Estimate the ToA of the STS in ``received``.

        Returns ``(estimate, normalized_correlation, integrity_ok)``.
        The normalized correlation is the matched-filter correlation at
        the claimed first path divided by the energy of the received
        window — close to 1 for a genuine (noisy) copy of the template,
        and near 0 for injected template-independent energy (a ghost
        peak), which is exactly the property the integrity check tests.
        """
        template = build_pulse_train(sts, self.config)
        corr = cross_correlation(received, template)
        estimate = first_path_toa(
            corr,
            back_search_window=self.back_search_window,
            threshold_ratio=self.threshold_ratio,
        )
        window = received[estimate.toa_sample : estimate.toa_sample + template.size]
        denom = float(np.linalg.norm(template) * np.linalg.norm(window))
        rho = abs(float(corr[estimate.toa_sample])) / denom if denom > 0 else 0.0
        integrity_ok = (not self.integrity_check) or rho >= self.min_normalized_corr
        return estimate, rho, integrity_ok


class HrpRangingSession:
    """One-way ToA measurement between two HRP devices sharing an STS key.

    The session abstracts the two-way exchange (see
    :mod:`repro.phy.ranging` for the TWR timing algebra): because both
    directions are symmetric, the security question — can an attacker
    shift the measured ToA of an STS? — is captured by a single
    direction, which is how the literature the paper cites ([4], [6],
    [8]) also evaluates it.
    """

    def __init__(self, key: bytes, *, sts_length: int = 256,
                 config: PhyConfig = HRP_CONFIG,
                 receiver: HrpReceiver | None = None) -> None:
        if sts_length < 16:
            raise ValueError("STS too short for meaningful correlation")
        self.key = key
        self._cipher = AES(key)
        self.sts_length = sts_length
        self.config = config
        self.receiver = receiver or HrpReceiver(config)
        self._counter = 0

    def next_sts(self) -> np.ndarray:
        """Fresh STS for the next round (never reused)."""
        sts = _sts(self._cipher, self._counter, self.sts_length)
        self._counter += 1
        return sts

    def measure(self, channel: Channel,
                attacker_signal: np.ndarray | None = None) -> RangingOutcome:
        """Run one ranging round over ``channel``.

        ``attacker_signal`` is an optional waveform in receiver time
        (see :mod:`repro.phy.attacks`); it is summed at the receiver.
        """
        sts = self.next_sts()
        tx = build_pulse_train(sts, self.config)
        rx = channel.propagate(tx, self.config, extra_signal=attacker_signal)
        estimate, rho, integrity_ok = self.receiver.estimate(rx, sts)
        measured = estimate.toa_sample * self.config.metres_per_sample
        return RangingOutcome(
            true_distance_m=channel.distance_m,
            measured_distance_m=measured,
            accepted=integrity_ok,
            integrity_ok=integrity_ok,
            toa=estimate,
            normalized_correlation=rho,
        )
