"""Shared benchmark utilities.

Every benchmark regenerates one paper table/figure at the paper's
parameters on one seed and prints paper-vs-measured rows; EXPERIMENTS.md
spreads the same experiments over seeds 5/6/7. Absolute numbers come from
a simulated substrate; the *shape* (who wins, by roughly what factor) is
the target.

Everything collected here is marked ``bench`` (CI runs the suite in a
separate non-blocking job); the heaviest end-to-end figure reproductions
are additionally marked ``slow`` so tiers can be selected with ``-m``.
"""

import contextlib
import pathlib

import numpy as np
import pytest

_BENCH_DIR = pathlib.Path(__file__).parent

#: Modules whose figures drive full cloud simulations (the slow tier).
_SLOW_MODULES = {
    "test_fig6_end_to_end",
    "test_fig8ab_scheduler_tradeoff",
    "test_fig8c_load_balance",
    "test_fig9a_cluster_scaling",
    "test_fig9b_load_scaling",
    "test_fig10a_exec_time",
    "test_fig10b_priorities",
}


def pytest_collection_modifyitems(config, items) -> None:
    for item in items:
        path = pathlib.Path(str(item.fspath))
        if path.parent != _BENCH_DIR:
            continue
        item.add_marker(pytest.mark.bench)
        if path.stem in _SLOW_MODULES:
            item.add_marker(pytest.mark.slow)


def report(title: str, result: dict, keys=None) -> None:
    """Print a paper-vs-measured table for a result dict."""
    paper = result.get("paper", {})
    measured = result.get("measured", {})
    print(f"\n=== {title} ===")
    for key in keys or paper:
        pv = paper.get(key, "-")
        mv = measured.get(key, "-")
        if isinstance(pv, float):
            pv = round(pv, 3)
        if isinstance(mv, float):
            mv = round(mv, 3)
        print(f"  {key:<40s} paper={pv!s:>14s}  measured={mv!s:>14s}")


@contextlib.contextmanager
def matrix_peel_patch():
    """Swap NSGA-II's ``front_ranks`` back to the ``(n, n)`` matrix peel.

    What every generation ran before the two-objective sweep; nothing
    else changes, and ranks are integers, so a patched run is
    bit-identical and a before/after timing sees only the sort.
    """
    from helpers.reference_kernels import front_ranks_matrix_peel
    from repro.moo import nsga2

    saved = nsga2.front_ranks
    try:
        nsga2.front_ranks = front_ranks_matrix_peel
        yield
    finally:
        nsga2.front_ranks = saved


@contextlib.contextmanager
def nsga_reference_patch():
    """Swap the NSGA-II hot path back to the pre-kernel reference loops.

    Restores the per-individual evaluate loop, the scalar per-violation
    repair loop, the per-front rank/crowding loops over matrix-peeled
    fronts, and the recompute-from-scratch truncation — the
    implementations the population-flat kernels replaced.  The
    references consume the same RNG streams, so a patched run returns
    bit-identical results and the only difference a before/after timing
    sees is the kernels.
    """
    from helpers.reference_kernels import (
        evaluate_reference,
        front_ranks_matrix_peel,
        repair_reference,
    )
    from repro.moo import crowding_distance
    from repro.moo.nsga2 import NSGA2
    from repro.scheduler.formulation import SchedulingProblem

    def ref_evaluate(self, X):
        return evaluate_reference(self.data, X)

    def ref_repair(self, X):
        lists = self.__dict__.get("_ref_feasible_lists")
        if lists is None:
            # The pre-kernel problem built these once in __init__; cache
            # per instance so the "before" arm isn't charged for rebuilds.
            lists = [
                np.where(self.data.feasible[i])[0]
                for i in range(self.data.num_jobs)
            ]
            self.__dict__["_ref_feasible_lists"] = lists
        return repair_reference(self.data, X, self._rng, lists)

    def peeled_fronts(F):
        rank = front_ranks_matrix_peel(F)
        return [np.where(rank == r)[0] for r in range(int(rank.max()) + 1)]

    def ref_rank_and_crowd(self, F):
        fronts = peeled_fronts(F)
        rank = np.empty(len(F), dtype=np.int64)
        crowd = np.empty(len(F))
        for r, front in enumerate(fronts):
            rank[front] = r
            crowd[front] = crowding_distance(F[front])
        return rank, crowd

    def ref_truncate(self, X, F):
        fronts = peeled_fronts(F)
        chosen, count = [], 0
        for front in fronts:
            if count + len(front) <= self.pop_size:
                chosen.append(front)
                count += len(front)
            else:
                crowd = crowding_distance(F[front])
                order = np.argsort(-crowd, kind="stable")
                chosen.append(front[order[: self.pop_size - count]])
                break
        idx = np.concatenate(chosen)
        Xs, Fs = X[idx], F[idx]
        rank, crowd = self._rank_and_crowd(Fs)
        return Xs, Fs, rank, crowd

    saved = (
        SchedulingProblem.evaluate,
        SchedulingProblem.repair,
        NSGA2._rank_and_crowd,
        NSGA2._truncate,
    )
    try:
        SchedulingProblem.evaluate = ref_evaluate
        SchedulingProblem.repair = ref_repair
        NSGA2._rank_and_crowd = ref_rank_and_crowd
        NSGA2._truncate = ref_truncate
        yield
    finally:
        (
            SchedulingProblem.evaluate,
            SchedulingProblem.repair,
            NSGA2._rank_and_crowd,
            NSGA2._truncate,
        ) = saved


@contextlib.contextmanager
def eager_workload_patch():
    """Swap the sampler's recipes back to the pre-recipe workload path.

    Every ``SampledJob.metrics`` builds its circuit and walks it six
    times (``helpers.reference_metrics``), with no per-family memo —
    what the load generator paid per arrival before a sampled job became
    a recipe.  The RNG draws are untouched, so a patched stream carries
    identical jobs and a before/after timing sees only the construction.
    """
    from helpers.reference_metrics import compute_metrics_reference
    from repro.workloads.suite import SampledJob

    saved = SampledJob.metrics
    try:
        SampledJob.metrics = property(
            lambda self: compute_metrics_reference(self.circuit)
        )
        yield
    finally:
        SampledJob.metrics = saved


@pytest.fixture
def once(benchmark):
    """Run the benched callable exactly once (experiments are heavy)."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                                  iterations=1)

    return runner
