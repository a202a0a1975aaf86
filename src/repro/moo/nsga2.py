"""NSGA-II (Deb et al. 2002) on integer genomes.

The optimizer behind the Qonductor scheduler's optimization stage. All
population-level operations are vectorized; one generation is
select -> crossover -> mutate -> repair -> evaluate -> elitist truncation
by (front rank, crowding distance).  Parents fill the first half of one
preallocated ``(2 * pop_size, n_var)`` / ``(2 * pop_size, n_obj)`` buffer
pair and each generation's children are written into the second, so the
truncation reads the union without stacking it; variation rewrites one
float scratch in place, cast from and to integers once a generation.
A run stops at its :class:`Termination`'s generation cap, so it
evaluates exactly ``pop_size * max_generations`` genomes.

:meth:`NSGA2.minimize` is a pure function of ``(problem, termination,
seed)``: the random stream is rebuilt from the configured seed on every
call instead of advancing a long-lived generator, so identical inputs
give identical outputs no matter how many times the optimizer runs.
That purity is what lets a scheduling cycle be replayed from its
recorded task.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (
    exponential_crossover,
    polynomial_mutation,
    tournament_selection,
)
from .problem import Problem
from .sorting import crowding_by_rank, crowding_distance, front_ranks
from .termination import Termination

__all__ = ["NSGA2", "NSGA2Result"]


@dataclass
class NSGA2Result:
    """Final population restricted to the first front."""

    X: np.ndarray  # (n_front, n_var) decision vectors
    F: np.ndarray  # (n_front, n_obj) objective values
    generations: int
    evaluations: int


class NSGA2:
    """Elitist non-dominated sorting GA with the paper's custom operators."""

    def __init__(
        self,
        pop_size: int,
        *,
        seed: int | np.random.SeedSequence | None = None,
    ) -> None:
        if pop_size < 4 or pop_size % 2:
            raise ValueError("pop_size must be an even number >= 4")
        self.pop_size = pop_size
        self.seed = seed

    def minimize(
        self,
        problem: Problem,
        termination: Termination,
    ) -> NSGA2Result:
        """Run the GA; the constructor's ``seed`` fixes the stream.

        The generator is created fresh per call, so repeated calls with
        the same problem and seed are bit-identical — there is no hidden
        RNG state carried between cycles.
        """
        rng = np.random.default_rng(self.seed)
        if termination.generations:
            raise ValueError(
                f"termination already counted {termination.generations} generations:"
                " one Termination serves one minimize(), pass a fresh one"
            )
        pop = self.pop_size
        X0 = problem.sample(pop, rng)
        F0 = problem.evaluate(X0)
        X_all = np.empty((2 * pop, X0.shape[1]), dtype=X0.dtype)
        F_all = np.empty((2 * pop, F0.shape[1]), dtype=F0.dtype)
        X, children = X_all[:pop], X_all[pop:]
        F, Fc = F_all[:pop], F_all[pop:]
        X[:], F[:] = X0, F0
        termination.update(F)
        lower, upper = problem.lower.astype(float), problem.upper.astype(float)

        rank, crowd = self._rank_and_crowd(F)
        while not termination.should_stop():
            parents_idx = tournament_selection(rank, crowd, pop, rng)
            scratch = X[parents_idx].astype(float)
            exponential_crossover(scratch, lower, upper, rng)
            polynomial_mutation(scratch, lower, upper, problem.span, rng)
            # Integer-valued and inside the box: the cast is exact.
            np.copyto(children, scratch, casting="unsafe")
            children[:] = problem.repair(children)
            Fc[:] = problem.evaluate(children)
            termination.update(Fc)

            # Elitist environmental selection over parents + children.
            X[:], F[:], rank, crowd = self._truncate(X_all, F_all)

        # The loop state already carries every survivor's front rank
        # (from `_rank_and_crowd` initially, `_truncate` thereafter), so
        # the final first front needs no third non-dominated sort.
        first = (rank == 0).nonzero()[0]
        # Deduplicate identical objective vectors for a clean Pareto front.
        sel = first[_first_occurrences(F[first])]
        return NSGA2Result(
            X=X[sel].copy(),
            F=F[sel].copy(),
            generations=termination.generations,
            evaluations=termination.evaluations,
        )

    # ------------------------------------------------------------------
    def _rank_and_crowd(self, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rank = front_ranks(F)
        return rank, crowding_by_rank(F, rank)

    def _truncate(
        self, X: np.ndarray, F: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Elitist truncation to ``pop_size`` by (front, crowding).

        One non-dominated sort (:func:`front_ranks`); the front sizes say
        who survives: whole fronts up to the first that no longer fits,
        and of that one — the split front — the least crowded members.
        Nothing else is crowded: the split front takes
        :func:`crowding_distance` (before the cut to choose, after it
        over exactly the surviving subset), the whole fronts one ranked
        sweep (:func:`crowding_by_rank`) over the gathered survivors.
        Those are in (rank, index) order, so inside each front position
        still runs with the original index — all the sweep's tie order
        rests on — and the values are bit-identical to a fresh
        rank-and-crowd over the survivors (``tests/test_ml_moo.py``).
        """
        rank_all = front_ranks(F)
        cum = np.bincount(rank_all).cumsum()
        # First rank whose cumulative count exceeds pop_size is split.
        r_split = int(cum.searchsorted(self.pop_size, side="right"))
        n_full = int(cum[r_split - 1]) if r_split > 0 else 0
        n_rest = self.pop_size - n_full
        # Fronts 0..r_split-1 concatenated in (rank, index) order.
        by_rank = rank_all.argsort(kind="stable")
        idx = by_rank[:n_full]
        if n_rest > 0:
            front = by_rank[n_full : cum[r_split]]
            order = (-crowding_distance(F[front])).argsort(kind="stable")
            idx = np.concatenate([idx, front[order[:n_rest]]])
        Xs, Fs = X[idx], F[idx]
        rank = rank_all[idx]
        crowd = np.empty(self.pop_size)
        crowd[:n_full] = crowding_by_rank(Fs[:n_full], rank[:n_full])
        if n_rest > 0:
            # The split front survives only partially; its crowding is
            # defined over the surviving subset, not the full front.
            crowd[n_full:] = crowding_distance(Fs[n_full:])
        return Xs, Fs, rank, crowd


def _first_occurrences(F: np.ndarray) -> np.ndarray:
    """Ascending positions of the first copy of each distinct row:
    ``np.sort(np.unique(F, axis=0, return_index=True)[1])`` as a stable
    lexsort and a neighbour comparison, without the structured view."""
    order = np.lexsort(F.T[::-1])
    rows = F[order]
    new = np.ones(len(F), dtype=bool)
    np.any(rows[1:] != rows[:-1], axis=1, out=new[1:])
    return np.sort(order[new])
