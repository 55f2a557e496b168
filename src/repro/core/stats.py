"""Statistical helpers for Monte-Carlo experiment results.

The cascade simulator, the ghost-peak trials, and the detection-rate
sweeps all report empirical proportions from finite trials; this module
provides the interval estimates that make those numbers honest:

* :func:`wilson_interval` — the Wilson score interval for a binomial
  proportion (well-behaved at 0 %/100 %, unlike the normal
  approximation);
* :func:`proportions_differ` — a two-proportion z-test for
  "defense X beats defense Y" claims at a chosen significance.
"""

from __future__ import annotations

import math

__all__ = ["wilson_interval", "proportions_differ"]


def wilson_interval(successes: int, trials: int, *,
                    confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1 or not 0 <= successes <= trials:
        raise ValueError("need 0 <= successes <= trials, trials >= 1")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    # scipy.stats costs ~67 MiB and ~0.9 s to import; every package
    # imports repro.core, so only the callers pay for it.
    from scipy.stats import norm

    z = float(norm.ppf(0.5 + confidence / 2.0))
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    centre = (p_hat + z * z / (2 * trials)) / denom
    margin = (z / denom) * math.sqrt(
        p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials))
    # The exact Wilson bound touches 0/1 at the degenerate counts;
    # clamp explicitly so round-off never leaves a sliver.
    low = 0.0 if successes == 0 else max(0.0, centre - margin)
    high = 1.0 if successes == trials else min(1.0, centre + margin)
    return low, high


def proportions_differ(successes_a: int, trials_a: int,
                       successes_b: int, trials_b: int, *,
                       alpha: float = 0.05) -> bool:
    """Two-proportion z-test: are the underlying rates different?

    Returns True when the null hypothesis (equal proportions) is
    rejected at significance ``alpha`` (two-sided).
    """
    for successes, trials in ((successes_a, trials_a), (successes_b, trials_b)):
        if trials < 1 or not 0 <= successes <= trials:
            raise ValueError("invalid counts")
    p_a = successes_a / trials_a
    p_b = successes_b / trials_b
    pooled = (successes_a + successes_b) / (trials_a + trials_b)
    variance = pooled * (1 - pooled) * (1 / trials_a + 1 / trials_b)
    if variance == 0.0:
        return p_a != p_b
    from scipy.stats import norm

    z = (p_a - p_b) / math.sqrt(variance)
    p_value = 2.0 * float(norm.sf(abs(z)))
    return p_value < alpha
