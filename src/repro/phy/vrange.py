"""V-Range-style secure ranging in 5G waveforms (paper §II-B, ref [12]).

Collision avoidance "relies on inputs from ... 5G's Positioning
Reference Signal (PRS)", and [12] (V-Range) shows how to make
OFDM-based ranging resistant to distance manipulation.  The structural
difference from UWB: 5G NR is an **OFDM** system, where each symbol
carries a cyclic prefix (CP).  A standard receiver tolerates any energy
inside the CP window — which is exactly where an attacker can inject an
early copy to shorten the measured distance.  V-Range's core ideas,
modeled here:

* ranging symbols carry a **pseudorandom PRS sequence** (unknown to the
  attacker, AES-CTR derived) so injected energy is sequence-independent;
* the receiver shortens the effective guard tolerance and verifies the
  **cross-correlation integrity** of the claimed first path (normalized
  correlation, as in the UWB HRP defense) plus a **CP-consistency
  check**: the CP must equal the symbol tail it copies — early injected
  energy breaks that equality.

The model works at baseband sample level with QPSK-modulated
subcarriers, an FFT-based OFDM modulator, and a time-domain correlator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.rng import numpy_rng
from repro.crypto.aes import AES
from repro.phy.pulses import SPEED_OF_LIGHT

__all__ = ["OfdmConfig", "VRangeSession", "VRangeOutcome", "CpInjectionAttack"]


@dataclass(frozen=True)
class OfdmConfig:
    """OFDM numerology for the ranging symbol.

    Defaults approximate a 100 MHz NR carrier (FFT 1024 at 122.88 MS/s):
    one sample ~ 2.44 m of light travel.
    """

    n_subcarriers: int = 1024
    cp_len: int = 72
    sample_rate_hz: float = 122.88e6

    def __post_init__(self) -> None:
        if self.n_subcarriers < 16 or self.cp_len < 1:
            raise ValueError("invalid OFDM geometry")
        if self.cp_len >= self.n_subcarriers:
            raise ValueError("CP must be shorter than the symbol")

    @property
    def metres_per_sample(self) -> float:
        return SPEED_OF_LIGHT / self.sample_rate_hz

    @property
    def symbol_len(self) -> int:
        return self.n_subcarriers + self.cp_len


def _prs_sequence(cipher: AES, counter: int, n: int) -> np.ndarray:
    """QPSK PRS: pseudorandom unit-modulus subcarrier values."""
    stream = cipher.ctr_keystream(counter.to_bytes(16, "big"), (2 * n + 7) // 8)
    bits = np.unpackbits(np.frombuffer(stream, dtype=np.uint8))[: 2 * n]
    symbols = (2.0 * bits[0::2] - 1.0) + 1j * (2.0 * bits[1::2] - 1.0)
    return symbols / np.sqrt(2.0)


@dataclass(frozen=True)
class VRangeOutcome:
    """Result of one 5G ranging measurement."""

    true_distance_m: float
    measured_distance_m: float
    accepted: bool
    normalized_correlation: float
    cp_consistency: float

    @property
    def error_m(self) -> float:
        return self.measured_distance_m - self.true_distance_m

    @property
    def reduced(self) -> bool:
        return self.error_m < -1.5 * 2.44  # more than ~1.5 samples early


@dataclass
class CpInjectionAttack:
    """Inject sequence-independent energy ahead of the legitimate symbol.

    The attacker aims energy ``advance_m`` early; against a tolerant
    receiver (no integrity checks) random correlation peaks inside the
    guard window pull the ToA forward.
    """

    advance_m: float
    #: Amplitude advantage over the legitimate signal. Sequence-
    #: independent energy only couples into the correlator as ~sqrt(N)
    #: of the coherent gain, so a meaningful attack needs a strong
    #: near-far advantage (published attacks assume a close attacker).
    power: float = 15.0
    seed_label: str = "cp-inject"

    def __post_init__(self) -> None:
        if self.advance_m <= 0 or self.power <= 0:
            raise ValueError("advance and power must be positive")
        self._rng = numpy_rng(self.seed_label)

    def waveform(self, delay_samples: int, config: OfdmConfig) -> np.ndarray:
        advance = max(1, round(self.advance_m / config.metres_per_sample))
        start = max(0, delay_samples - advance)
        burst = (self._rng.normal(0, 1, config.symbol_len)
                 + 1j * self._rng.normal(0, 1, config.symbol_len)) / np.sqrt(2)
        out = np.zeros(start + config.symbol_len, dtype=complex)
        out[start:] = self.power * burst
        return out


class VRangeSession:
    """One-way ToA over an OFDM ranging symbol with optional V-Range checks."""

    def __init__(self, key: bytes, *, config: OfdmConfig | None = None,
                 secure: bool = True,
                 min_normalized_corr: float = 0.35,
                 min_cp_consistency: float = 0.5,
                 back_search: int = 48,
                 threshold_ratio: float = 0.35) -> None:
        self.key = key
        self._cipher = AES(key)
        self.config = config or OfdmConfig()
        self.secure = secure
        self.min_normalized_corr = min_normalized_corr
        self.min_cp_consistency = min_cp_consistency
        self.back_search = back_search
        self.threshold_ratio = threshold_ratio
        self._counter = 0

    def _tx_symbol(self) -> np.ndarray:
        prs = _prs_sequence(self._cipher, self._counter, self.config.n_subcarriers)
        self._counter += 1
        time_domain = np.fft.ifft(prs) * np.sqrt(self.config.n_subcarriers)
        return np.concatenate([time_domain[-self.config.cp_len:], time_domain])

    def measure(self, distance_m: float, *, snr_db: float = 15.0,
                attack: CpInjectionAttack | None = None,
                seed_label: str = "vrange") -> VRangeOutcome:
        """Range once over an AWGN channel at ``distance_m``."""
        if distance_m < 0:
            raise ValueError("distance must be non-negative")
        config = self.config
        tx = self._tx_symbol()
        delay = round(distance_m / config.metres_per_sample)
        attacker = attack.waveform(delay, config) if attack is not None else None
        length = delay + tx.size
        if attacker is not None:
            length = max(length, attacker.size)
        rng = numpy_rng(seed_label)
        sigma = 10.0 ** (-snr_db / 20.0) / np.sqrt(2.0)
        rx = (rng.normal(0, sigma, length) + 1j * rng.normal(0, sigma, length))
        rx[delay : delay + tx.size] += tx
        if attacker is not None:
            rx[: attacker.size] += attacker

        # Correlate against the known symbol (without CP, the receiver's
        # matched filter reference).
        reference = tx[config.cp_len :]
        corr = np.abs(np.correlate(rx, reference, mode="valid"))
        peak = int(np.argmax(corr))
        threshold = self.threshold_ratio * corr[peak]
        toa = peak
        for idx in range(max(0, peak - self.back_search), peak):
            if corr[idx] >= threshold:
                toa = idx
                break

        # toa points at the start of the symbol body; the frame started
        # one CP earlier.
        body_start = toa
        window = rx[body_start : body_start + reference.size]
        denom = float(np.linalg.norm(reference) * np.linalg.norm(window))
        rho = float(corr[body_start]) / denom if denom > 0 else 0.0

        # CP consistency at the claimed position: the cp_len samples
        # before the body must replicate the body's tail.
        cp_start = body_start - config.cp_len
        if cp_start >= 0:
            cp = rx[cp_start:body_start]
            tail = window[-config.cp_len:]
            denom_cp = float(np.linalg.norm(cp) * np.linalg.norm(tail))
            cp_rho = float(np.abs(np.vdot(tail, cp))) / denom_cp if denom_cp > 0 else 0.0
        else:
            cp_rho = 0.0

        accepted = True
        if self.secure:
            accepted = (rho >= self.min_normalized_corr
                        and cp_rho >= self.min_cp_consistency)
        # The frame began one CP before the detected symbol body.
        measured = (body_start - config.cp_len) * config.metres_per_sample
        return VRangeOutcome(
            true_distance_m=(delay) * config.metres_per_sample,
            measured_distance_m=measured,
            accepted=accepted,
            normalized_correlation=rho,
            cp_consistency=cp_rho,
        )
