"""The pure optimization stage of a scheduling cycle.

One NSGA-II cycle is, after pre-processing, a deterministic function of a
:class:`~repro.scheduler.formulation.SchedulingInput` snapshot plus a seed
— no scheduler, estimator, or simulator state is involved.  The
simulator runs it between a policy's ``begin_cycle`` and
``finish_cycle``, inside the cycle's trigger instant.  This module
isolates that function so a cycle can be re-run from its task alone — a
replay of a recorded cycle, or a re-run at another optimizer budget:

* :class:`OptimizationTask` is the picklable work unit: the estimate
  matrices (prefetched through the shared cache, so the stage never
  touches shared mutable state), the optimizer knobs, and the
  ``(base_seed, shard_id, cycle_index)`` entropy that pins the random
  stream.
* :func:`run_optimization` is the module-level pure stage function
  (importable by name).  Given the same task it returns bit-identical
  results however often and in whatever order it runs.

Seeds derive from :func:`cycle_seed`: a ``numpy`` ``SeedSequence`` over
``(base_seed, shard_id, cycle_index)``.  Every (shard, cycle) pair gets a
collision-free, execution-order-independent stream — unlike the old
``seed + cycle`` counters, where shard 0's cycle 3 and shard 1's cycle 2
drew identical randomness and results depended on per-instance call
counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..moo import NSGA2, Termination
from .formulation import SchedulingInput, SchedulingProblem

__all__ = [
    "OptimizationTask",
    "OptimizationResult",
    "cycle_seed",
    "run_optimization",
]


def cycle_seed(
    base_seed: int, shard_id: int, cycle_index: int
) -> np.random.SeedSequence:
    """The root seed of one scheduling cycle's random stream.

    Pure function of identity, not of execution order: two shards' cycles
    in one batch, or a cycle replayed from its task, always draw the
    stream the run drew.
    """
    return np.random.SeedSequence(entropy=(base_seed, shard_id, cycle_index))


@dataclass(frozen=True)
class OptimizationTask:
    """Everything one optimization-stage run needs, picklable."""

    data: SchedulingInput
    pop_size: int
    max_generations: int
    base_seed: int
    shard_id: int
    cycle_index: int


@dataclass(frozen=True)
class OptimizationResult:
    """What the optimization stage hands back to ``finish_cycle``."""

    X: np.ndarray  # (n_front, n_jobs) front decision vectors
    F: np.ndarray  # (n_front, 2) front objective values
    generations: int
    evaluations: int
    #: Wall seconds the NSGA-II run itself took.
    optimize_seconds: float = field(default=0.0, compare=False)


def run_optimization(task: OptimizationTask) -> OptimizationResult:
    """Stage 2 (NSGA-II over Eq. 1) as a pure function of the task.

    Builds the problem and the optimizer from the snapshot, derives the
    repair and GA streams from :func:`cycle_seed`, and returns only
    arrays.  A failure inside the stage is re-raised as a
    ``RuntimeError`` naming the cycle's shard, index and base seed.
    """
    t0 = time.perf_counter()
    try:
        root = cycle_seed(task.base_seed, task.shard_id, task.cycle_index)
        repair_seed, ga_seed = root.spawn(2)
        problem = SchedulingProblem(task.data, seed=repair_seed)
        algo = NSGA2(pop_size=task.pop_size, seed=ga_seed)
        result = algo.minimize(
            problem, Termination(max_generations=task.max_generations)
        )
    except Exception as exc:
        raise RuntimeError(
            f"optimization stage failed: shard {task.shard_id}, cycle "
            f"{task.cycle_index}, base seed {task.base_seed}"
        ) from exc
    return OptimizationResult(
        X=result.X,
        F=result.F,
        generations=result.generations,
        evaluations=result.evaluations,
        optimize_seconds=time.perf_counter() - t0,
    )

