"""Temporal calibration drift.

QPU noise fluctuates unpredictably between calibration cycles (§2.1, §3).
We model each device's quality factor as a mean-reverting Ornstein-Uhlenbeck
process sampled once per calibration cycle: devices wander around their
intrinsic quality, occasionally crossing each other — which is what makes
calibration-crossover rescheduling (§7) matter.
"""

from __future__ import annotations

import numpy as np

__all__ = ["OUDrift"]

#: Mean-reversion rate and per-cycle noise of the log quality factor.
_THETA = 0.35
_SIGMA = 0.12


class OUDrift:
    """Discrete-time Ornstein-Uhlenbeck process on log quality factor.

    ``log q_{t+1} = log q_t + theta (log q_mean - log q_t) + sigma eps``,
    with ``theta = 0.35`` and ``sigma = 0.12``.

    Working in log space keeps quality factors positive and makes the
    stationary distribution lognormal, matching the heavy-tailed dispersion
    of real calibration histories.
    """

    def __init__(
        self,
        mean_quality: float,
        *,
        rng: np.random.Generator | None = None,
    ) -> None:
        if mean_quality <= 0:
            raise ValueError("mean_quality must be positive")
        self.log_mean = float(np.log(mean_quality))
        # Deterministic by default: an injected Generator keys the drift
        # stream; the fallback is a fixed seed, never ambient OS entropy.
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._log_q = self.log_mean

    @property
    def quality(self) -> float:
        return float(np.exp(self._log_q))

    def step(self) -> float:
        """Advance one calibration cycle; returns the new quality factor."""
        eps = self._rng.normal()
        self._log_q += _THETA * (self.log_mean - self._log_q) + _SIGMA * eps
        return self.quality
