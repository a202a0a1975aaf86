"""Termination criteria (§7): generation/evaluation caps plus the paper's
sliding-window tolerance — convergence is judged over a window of recent
generations rather than only the latest one."""

from __future__ import annotations

import numpy as np

__all__ = ["Termination"]


class Termination:
    """Composite stop condition for NSGA-II.

    Stops when any of:
    * ``max_generations`` reached,
    * ``max_evaluations`` objective evaluations spent,
    * the best (ideal-point) objective vector improved less than ``tol``
      over a sliding window of ``window`` generations.

    An instance counts one run; ``NSGA2.minimize`` refuses a spent one.
    """

    def __init__(
        self,
        *,
        max_generations: int = 60,
        max_evaluations: int = 100_000,
        tol: float = 1e-3,
        window: int = 8,
    ) -> None:
        for name, value, floor in (
            ("max_generations", max_generations, 1),
            ("max_evaluations", max_evaluations, 1),
            ("window", window, 1),
            ("tol", tol, 0),
        ):
            if value < floor:
                raise ValueError(f"{name} must be >= {floor}, got {value}")
        self.max_generations = max_generations
        self.max_evaluations = max_evaluations
        self.tol = tol
        self.window = window
        # Ring of the last `window` ideal points, row = generation % window
        # (allocated on the first update, when the objective count is known).
        self._ideals: np.ndarray | None = None
        self.generations = 0
        self.evaluations = 0
        self.reason: str | None = None

    def update(self, F: np.ndarray) -> None:
        """Record one generation's objective matrix."""
        if self._ideals is None:
            self._ideals = np.empty((self.window, F.shape[1]), dtype=F.dtype)
        F.min(axis=0, out=self._ideals[self.generations % self.window])
        self.generations += 1
        self.evaluations += len(F)

    def should_stop(self) -> bool:
        if self.generations >= self.max_generations:
            self.reason = "max_generations"
            return True
        if self.evaluations >= self.max_evaluations:
            self.reason = "max_evaluations"
            return True
        hist = self._ideals
        if hist is not None and self.generations >= self.window:
            span = hist.max(axis=0) - hist.min(axis=0)
            scale = np.abs(hist).max(axis=0) + 1e-12
            if np.all(span / scale < self.tol):
                self.reason = "tolerance_window"
                return True
        return False
