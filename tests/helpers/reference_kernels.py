"""Reference loops the vectorized NSGA-II kernels replaced, kept verbatim.

``src/`` runs :func:`repro.scheduler.formulation.evaluate_population` /
``repair_population`` and :func:`repro.moo.sorting.front_ranks`; these
are the per-individual / per-violation / per-front forms they must equal
**bit for bit** (values and, for repair, RNG stream position).
``benchmarks/conftest.py``'s ``nsga_reference_patch`` rebuilds the
pre-kernel hot path from them.
"""

from __future__ import annotations

import numpy as np

from repro.moo.sorting import front_ranks
from repro.scheduler.formulation import SchedulingInput

__all__ = ["evaluate_reference", "fast_non_dominated_sort", "repair_reference"]


def evaluate_reference(data: SchedulingInput, X: np.ndarray) -> np.ndarray:
    """The per-individual objective loop :func:`evaluate_population`
    replaced — kept as the regression/benchmark reference."""
    pop, n = X.shape
    q = data.num_qpus
    rows = np.arange(n)
    F = np.empty((pop, 2))
    exec_sel = data.exec_seconds[rows[None, :], X]  # (pop, N)
    fid_sel = data.fidelity[rows[None, :], X]
    wait_sel = data.waiting_seconds[X]
    for p in range(pop):
        # Total batch execution time landing on each QPU.
        totals = np.bincount(X[p], weights=exec_sel[p], minlength=q)
        jct = wait_sel[p] + totals[X[p]]
        F[p, 0] = jct.mean()
        F[p, 1] = 1.0 - fid_sel[p].mean()
    return F


def repair_reference(
    data: SchedulingInput,
    X: np.ndarray,
    rng: np.random.Generator,
    feasible_lists: list[np.ndarray] | None = None,
) -> np.ndarray:
    """The scalar per-violation repair loop :func:`repair_population`
    replaced — kept as the regression/benchmark reference."""
    if feasible_lists is None:
        feasible_lists = [
            np.where(data.feasible[i])[0] for i in range(data.num_jobs)
        ]
    X = np.clip(X, 0, data.num_qpus - 1)
    bad = ~data.feasible[np.arange(data.num_jobs)[None, :], X]
    if bad.any():
        for p, i in zip(*np.nonzero(bad)):
            options = feasible_lists[i]
            X[p, i] = options[int(rng.integers(len(options)))]
    return X


def fast_non_dominated_sort(F: np.ndarray) -> list[np.ndarray]:
    """Partition indices into Pareto fronts (front 0 = non-dominated)."""
    if len(F) == 0:
        return []
    rank = front_ranks(F)
    return [np.where(rank == r)[0] for r in range(int(rank.max()) + 1)]
