"""Termination criteria (§7): a generation cap plus the paper's
sliding-window tolerance — convergence is judged over a window of recent
generations rather than only the latest one."""

from __future__ import annotations

import numpy as np

__all__ = ["Termination"]


class Termination:
    """Composite stop condition for NSGA-II.

    Stops when any of:
    * ``max_generations`` reached,
    * the best (ideal-point) objective vector improved less than ``tol``
      over a sliding window of ``window`` generations.

    An instance counts one run; ``NSGA2.minimize`` refuses a spent one.
    """

    def __init__(
        self,
        *,
        max_generations: int = 60,
        tol: float = 1e-3,
        window: int = 8,
    ) -> None:
        for name, value, floor in (
            ("max_generations", max_generations, 1),
            ("window", window, 1),
            ("tol", tol, 0),
        ):
            if value < floor:
                raise ValueError(f"{name} must be >= {floor}, got {value}")
        self.max_generations = max_generations
        self.tol = tol
        self.window = window
        # Ring of the last `window` ideal points, slot = generation %
        # window, as rows of Python floats: at 8 x 2 the window test is the
        # array reductions' IEEE arithmetic without their per-call cost.
        self._ideals: list[list[float]] = []
        self.generations = 0
        self.evaluations = 0
        self.reason: str | None = None

    def update(self, F: np.ndarray) -> None:
        """Record one generation's objective matrix."""
        slot = self.generations % self.window
        self._ideals[slot : slot + 1] = [F.min(axis=0).tolist()]
        self.generations += 1
        self.evaluations += len(F)

    def should_stop(self) -> bool:
        if self.generations >= self.max_generations:
            self.reason = "max_generations"
            return True
        if self.generations >= self.window and all(
            (max(column) - min(column)) / (max(map(abs, column)) + 1e-12)
            < self.tol
            for column in zip(*self._ideals)
        ):
            self.reason = "tolerance_window"
            return True
        return False
