"""Termination (§7): the generation cap of one NSGA-II run.

The paper also stops on a sliding-window tolerance over the ideal point.
Here that test carries no convergence signal: the error objective is
separable per job and :meth:`SchedulingProblem.sample` seeds each job's
best-fidelity QPU, so the ideal point's error is exact at generation 0
and a window over it watches only the greedy JCT seed.  Fed the
survivors it stopped cycles before the front's interior converged (Fig.
9a's 16-QPU drained JCT rose from 134 s to 190 s on seed 5); fed the
children's minima it fired on noise.  So a run stops at
``max_generations`` alone.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Termination"]


class Termination:
    """Counts one NSGA-II run and stops it at ``max_generations``.

    The initial population counts as the first generation.  An instance
    counts one run; ``NSGA2.minimize`` refuses a spent one.
    """

    def __init__(self, *, max_generations: int) -> None:
        if max_generations < 1:
            raise ValueError(f"max_generations must be >= 1, got {max_generations}")
        self.max_generations = max_generations
        self.generations = 0
        self.evaluations = 0

    def update(self, F: np.ndarray) -> None:
        """Record one generation's objective matrix."""
        self.generations += 1
        self.evaluations += len(F)

    def should_stop(self) -> bool:
        return self.generations >= self.max_generations
