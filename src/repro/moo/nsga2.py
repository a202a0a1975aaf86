"""NSGA-II (Deb et al. 2002) on integer genomes.

The optimizer behind the Qonductor scheduler's optimization stage. All
population-level operations are vectorized; one generation is
select -> crossover -> mutate -> repair -> evaluate -> elitist truncation
by (front rank, crowding distance).  Parents fill the first half of one
preallocated ``(2 * pop_size, n_var)`` / ``(2 * pop_size, n_obj)`` buffer
pair and each generation's children are written into the second, so the
truncation reads the union without stacking it.

:meth:`NSGA2.minimize` is a pure function of ``(problem, termination,
seed)``: the random stream is rebuilt from the configured seed on every
call instead of advancing a long-lived generator, so identical inputs
give identical outputs no matter how many times — or on which worker
process — the optimizer runs.  That purity is what lets the parallel
scheduling engine ship cycles to a worker pool while staying bit-identical
to serial execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    reason: str
    history: list[np.ndarray] = field(default_factory=list)

    @property
    def n_solutions(self) -> int:
        return len(self.X)


class NSGA2:
    """Elitist non-dominated sorting GA with the paper's custom operators."""

    def __init__(
        self,
        pop_size: int = 64,
        *,
        crossover_rate: float = 0.9,
        mutation_eta: float = 12.0,
        seed: int | np.random.SeedSequence | None = None,
        keep_history: bool = False,
    ) -> None:
        if pop_size < 4 or pop_size % 2:
            raise ValueError("pop_size must be an even number >= 4")
        self.pop_size = pop_size
        self.crossover_rate = crossover_rate
        self.mutation_eta = mutation_eta
        self.keep_history = keep_history
        self.seed = seed

    def minimize(
        self,
        problem: Problem,
        termination: Termination | None = None,
        *,
        seed: int | np.random.SeedSequence | None = None,
    ) -> NSGA2Result:
        """Run the GA; ``seed`` (or the constructor seed) fixes the stream.

        The generator is created fresh per call, so repeated calls with
        the same problem and seed are bit-identical — there is no hidden
        RNG state carried between cycles.
        """
        rng = np.random.default_rng(self.seed if seed is None else seed)
        term = termination or Termination()
        if term.generations:
            raise ValueError(
                f"termination already counted {term.generations} generations:"
                " one Termination serves one minimize(), pass a fresh one"
            )
        pop, half = self.pop_size, self.pop_size // 2
        X0 = problem.sample(pop, rng)
        F0 = problem.evaluate(X0)
        X_all = np.empty((2 * pop, X0.shape[1]), dtype=X0.dtype)
        F_all = np.empty((2 * pop, F0.shape[1]), dtype=F0.dtype)
        X, children = X_all[:pop], X_all[pop:]
        F, Fc = F_all[:pop], F_all[pop:]
        X[:], F[:] = X0, F0
        term.update(F)
        history: list[np.ndarray] = []

        rank, crowd = self._rank_and_crowd(F)
        while not term.should_stop():
            parents_idx = tournament_selection(rank, crowd, pop, rng)
            pa, pb = X[parents_idx[:half]], X[parents_idx[half:]]
            children[:half], children[half:] = exponential_crossover(
                pa, pb, problem.lower, problem.upper, rng, rate=self.crossover_rate
            )
            mutated = polynomial_mutation(
                children, problem.lower, problem.upper, rng, eta=self.mutation_eta
            )
            children[:] = problem.repair(mutated)
            Fc[:] = problem.evaluate(children)
            term.update(Fc)

            # Elitist environmental selection over parents + children.
            X[:], F[:], rank, crowd = self._truncate(X_all, F_all)
            if self.keep_history:
                history.append(F[rank == 0].copy())

        # The loop state already carries every survivor's front rank
        # (from `_rank_and_crowd` initially, `_truncate` thereafter), so
        # the final first front needs no third non-dominated sort.
        first = np.where(rank == 0)[0]
        # Deduplicate identical objective vectors for a clean Pareto front.
        _, unique_idx = np.unique(F[first], axis=0, return_index=True)
        sel = first[np.sort(unique_idx)]
        return NSGA2Result(
            X=X[sel].copy(),
            F=F[sel].copy(),
            generations=term.generations,
            evaluations=term.evaluations,
            reason=term.reason or "unknown",
            history=history,
        )

    # ------------------------------------------------------------------
    def _rank_and_crowd(self, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rank = front_ranks(F)
        return rank, crowding_by_rank(F, rank)

    def _truncate(
        self, X: np.ndarray, F: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Elitist truncation to ``pop_size`` by (front, crowding).

        One non-dominated sort per selection (:func:`front_ranks`; for
        two objectives a sort and a sweep, no domination matrix), and
        crowding for every front from the single ranked sweep
        (:func:`crowding_by_rank`) shared with :meth:`_rank_and_crowd` —
        no per-front Python loop and no re-sorting of the truncated set
        (every survivor in front ``r`` is still dominated only by
        surviving members of front ``r - 1``).  Values are bit-identical
        to the per-front reference loop: full fronts keep their whole
        member set, and the one split front's crowding is recomputed
        over exactly the surviving subset, matching what a fresh
        rank-and-crowd over the survivors would produce (asserted in
        ``tests/test_ml_moo.py``).
        """
        rank_all = front_ranks(F)
        crowd_all = crowding_by_rank(F, rank_all)
        counts = np.bincount(rank_all)
        cum = np.cumsum(counts)
        # First rank whose cumulative count exceeds pop_size is split.
        r_split = int(np.searchsorted(cum, self.pop_size, side="right"))
        n_full = int(cum[r_split - 1]) if r_split > 0 else 0
        # Fronts 0..r_split-1 concatenated in (rank, index) order.
        by_rank = np.argsort(rank_all, kind="stable")
        idx = by_rank[:n_full]
        n_rest = self.pop_size - n_full
        if n_rest > 0:
            front = np.where(rank_all == r_split)[0]
            order = np.argsort(-crowd_all[front], kind="stable")
            idx = np.concatenate([idx, front[order[:n_rest]]])
        Xs, Fs = X[idx], F[idx]
        rank = rank_all[idx]
        crowd = crowd_all[idx]
        if n_rest > 0:
            # The split front survives only partially; its crowding is
            # defined over the surviving subset, not the full front.
            crowd[n_full:] = crowding_distance(Fs[n_full:])
        return Xs, Fs, rank, crowd
