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


class OUDrift:
    """Discrete-time Ornstein-Uhlenbeck process on log quality factor.

    ``log q_{t+1} = log q_t + theta (log q_mean - log q_t) + sigma eps``

    Working in log space keeps quality factors positive and makes the
    stationary distribution lognormal, matching the heavy-tailed dispersion
    of real calibration histories.
    """

    def __init__(
        self,
        mean_quality: float,
        *,
        theta: float = 0.35,
        sigma: float = 0.12,
        rng: np.random.Generator | None = None,
    ) -> None:
        if mean_quality <= 0:
            raise ValueError("mean_quality must be positive")
        if not 0.0 < theta <= 1.0:
            raise ValueError("theta must be in (0, 1]")
        self.log_mean = float(np.log(mean_quality))
        self.theta = theta
        self.sigma = sigma
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
        self._log_q += self.theta * (self.log_mean - self._log_q) + self.sigma * eps
        return self.quality
