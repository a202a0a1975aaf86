"""Optimization problem interface for integer-encoded multi-objective
minimization (the scheduler's job->QPU assignment problem, Eq. 1)."""

from __future__ import annotations

import numpy as np

__all__ = ["Problem"]


class Problem:
    """A vector-valued minimization problem over integer decision variables.

    Subclasses implement :meth:`evaluate` returning an
    ``(n_individuals, n_objectives)`` array. Decision variables are integers
    in ``[lower[i], upper[i]]`` inclusive. Infeasible assignments should be
    handled via :meth:`repair` (projection into the feasible set), which
    NSGA-II calls after every variation step — the paper's constraint
    ``q_i <= s_{x_i}`` (job fits QPU) is enforced this way.
    """

    def __init__(self, n_var: int, n_obj: int, lower, upper) -> None:
        if n_var < 1 or n_obj < 1:
            raise ValueError("need n_var >= 1 and n_obj >= 1")
        self.n_var = n_var
        self.n_obj = n_obj
        self.lower = np.broadcast_to(np.asarray(lower, dtype=np.int64), (n_var,)).copy()
        self.upper = np.broadcast_to(np.asarray(upper, dtype=np.int64), (n_var,)).copy()
        if np.any(self.upper < self.lower):
            raise ValueError("upper bound below lower bound")
        #: Mutation step scale per gene: the box width, 1 for a fixed gene.
        self.span = np.maximum(self.upper - self.lower, 1).astype(float)

    def evaluate(self, X: np.ndarray) -> np.ndarray:
        """Objective values for a population ``X`` of shape (pop, n_var)."""
        raise NotImplementedError

    def repair(self, X: np.ndarray) -> np.ndarray:
        """Project a population into the feasible set (default: clip)."""
        return np.clip(X, self.lower, self.upper)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Random feasible population (paper: random-integer initialization)."""
        X = rng.integers(
            self.lower[None, :], self.upper[None, :] + 1, size=(n, self.n_var)
        )
        return self.repair(X)
