"""The scheduling optimization problem (§7, Eq. 1).

Decision vector: ``x[i]`` = index of the QPU assigned to job ``i``.
Objectives (both minimized):

* ``f1`` — mean JCT: each job pays its QPU's current queue waiting time
  plus the execution time of every batch job co-assigned to that QPU;
* ``f2`` — mean error: ``1 - fidelity`` of each (job, QPU) assignment.

Constraint ``q_i <= s_{x_i}`` (job width fits the QPU) is enforced by
repair: infeasible genes are projected to a random feasible QPU.
Complexity is O(N) in the number of jobs, independent of fleet size.

The hot per-generation passes are population-flat NumPy kernels:
:func:`evaluate_population` folds the whole ``(pop, N)`` population into
one offset-encoded segment sum instead of ``pop`` Python iterations, and
:func:`repair_population` projects every infeasible gene with one
bounded-integer draw per violation in row-major order — bit-identical to
the scalar reference loops in ``tests/helpers/reference_kernels.py``,
which the tests and the ``test_perf_nsga_kernels`` gate keep pinned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..moo.problem import Problem

__all__ = [
    "SchedulingInput",
    "SchedulingProblem",
    "assignment_stats",
    "pack_feasible",
    "evaluate_population",
    "repair_population",
]


@dataclass
class SchedulingInput:
    """Pre-processed matrices the optimizer consumes.

    fidelity[i, q] / exec_seconds[i, q] come from the resource estimator;
    waiting_seconds[q] is the system monitor's queue estimate;
    feasible[i, q] marks assignments satisfying the size constraint.
    """

    fidelity: np.ndarray  # (N, Q)
    exec_seconds: np.ndarray  # (N, Q)
    waiting_seconds: np.ndarray  # (Q,)
    feasible: np.ndarray  # (N, Q) bool

    def __post_init__(self) -> None:
        n, q = self.fidelity.shape
        if self.exec_seconds.shape != (n, q):
            raise ValueError("exec_seconds shape mismatch")
        if self.waiting_seconds.shape != (q,):
            raise ValueError("waiting_seconds shape mismatch")
        if self.feasible.shape != (n, q):
            raise ValueError("feasible shape mismatch")
        if not self.feasible.any(axis=1).all():
            raise ValueError("some job has no feasible QPU (filter first)")
        # NSGA-II does not stop on a NaN or inf estimate, it ranks it.
        for name in ("fidelity", "exec_seconds", "waiting_seconds"):
            values = getattr(self, name)
            if not np.isfinite(values).all():
                at = np.argwhere(~np.isfinite(values))[0].tolist()
                raise ValueError(f"{name}{at} = {values[tuple(at)]} is not finite")

    @property
    def num_jobs(self) -> int:
        return self.fidelity.shape[0]

    @property
    def num_qpus(self) -> int:
        return self.fidelity.shape[1]


# ---------------------------------------------------------------------------
# Population-flat kernels (stage-2 hot path; pure, worker-safe)


def pack_feasible(
    feasible: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pack the ragged per-job feasible-QPU lists into flat arrays.

    Returns ``(flat, offsets, counts)``: ``flat[offsets[i] :
    offsets[i] + counts[i]]`` is ``np.where(feasible[i])[0]`` — the
    ascending feasible QPU indices of job ``i`` — without materializing
    one Python list per job.
    """
    counts = feasible.sum(axis=1).astype(np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1])).astype(np.int64)
    flat = np.nonzero(feasible)[1].astype(np.int64)  # row-major: per-job runs
    return flat, offsets, counts


def evaluate_population(data: SchedulingInput, X: np.ndarray) -> np.ndarray:
    """Eq. 1 objectives for a whole ``(pop, N)`` population in one pass.

    Per-QPU batch loads for *all* individuals come from a single
    offset-encoded segment sum (individual ``p``'s genes land in bins
    ``[p * Q, (p + 1) * Q)``), so the per-generation objective pass is
    one vectorized kernel instead of ``pop`` Python-level ``bincount``
    iterations.  Bit-identical to the per-individual reference loop: the
    flat segment sum accumulates each bin's weights in the same
    row-major order the per-individual ``bincount`` does, and the row
    means reduce the same contiguous values.
    """
    pop, n = X.shape
    q = data.num_qpus
    return _objectives(data, X, np.arange(n) * q, (np.arange(pop) * q)[:, None])


def _objectives(
    data: SchedulingInput, X: np.ndarray, gene_cells: np.ndarray, row_bins: np.ndarray
) -> np.ndarray:
    """:func:`evaluate_population` given ``arange(N) * Q`` and ``(arange(pop) * Q)[:, None]``."""
    pop, n = X.shape
    # Flat (job, qpu) cell ids: a[i, X[p, i]] == a.ravel()[i * Q + X[p, i]],
    # so one index matrix feeds both estimate gathers as flattened takes.
    cell = X + gene_cells
    exec_sel = data.exec_seconds.take(cell)  # (pop, N)
    fid_sel = data.fidelity.take(cell)
    wait_sel = data.waiting_seconds.take(X)
    # Per-individual bins: individual p's genes land in [p * Q, (p+1) * Q).
    seg = X + row_bins
    totals = np.bincount(
        seg.ravel(), weights=exec_sel.ravel(), minlength=pop * data.num_qpus
    )
    # The same bin ids read the summed loads back: totals[p*Q + X[p, i]].
    jct = wait_sel + totals.take(seg)
    F = np.empty((pop, 2))  # row means as np.mean takes them: sum, one divide
    F[:, 0] = np.add.reduce(jct, axis=1) / n
    F[:, 1] = 1.0 - np.add.reduce(fid_sel, axis=1) / n
    return F


def repair_population(
    data: SchedulingInput,
    X: np.ndarray,
    rng: np.random.Generator,
    packed: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Project every infeasible gene to a random feasible QPU, batched.

    All violations are located with one mask pass and repaired with one
    bounded-integer draw per violation in row-major ``(individual,
    gene)`` order — the exact order, bounds, and bit stream of the
    scalar per-violation loop, so seeded runs are unchanged by the
    batching.
    """
    X = np.maximum(X, 0)
    np.minimum(X, data.num_qpus - 1, out=X)
    # The flat (job, qpu) cell ids evaluate_population gathers with.
    bad = ~data.feasible.take(X + np.arange(data.num_jobs) * data.num_qpus)
    if bad.any():
        flat, offsets, counts = (
            packed if packed is not None else pack_feasible(data.feasible)
        )
        ps, js = np.nonzero(bad)  # row-major: the scalar loop's order
        # Stream contract: NumPy's array-bound Lemire rejection is the
        # scalar algorithm applied in element order, so this consumes the
        # bit stream of ``[rng.integers(h) for h in counts[js]]`` exactly
        # (values and stream position locked in tests/test_ml_moo.py).
        draws = rng.integers(counts[js])
        X[ps, js] = flat[offsets[js] + draws]
    return X


class SchedulingProblem(Problem):
    """Integer-encoded Eq. 1 instance over a :class:`SchedulingInput`,
    holding what a generation would otherwise rebuild: the kernels'
    offset vectors and the packed feasible lists."""

    def __init__(
        self,
        data: SchedulingInput,
        seed: int | np.random.SeedSequence = 0,
    ) -> None:
        super().__init__(
            n_var=data.num_jobs, n_obj=2, lower=0, upper=data.num_qpus - 1
        )
        self.data = data
        self._rng = np.random.default_rng(seed)
        self._gene_cells = np.arange(data.num_jobs) * data.num_qpus
        self._row_bins = np.empty((0, 1), dtype=np.int64)  # sized by evaluate
        # Flat feasible-QPU index arrays for the batched repair kernel;
        # None when every cell is feasible and there is nothing to repair.
        self._packed = None if data.feasible.all() else pack_feasible(data.feasible)

    # ------------------------------------------------------------------
    def evaluate(self, X: np.ndarray) -> np.ndarray:
        if len(X) != len(self._row_bins):
            self._row_bins = (np.arange(len(X)) * self.data.num_qpus)[:, None]
        return _objectives(self.data, X, self._gene_cells, self._row_bins)

    def repair(self, X: np.ndarray) -> np.ndarray:
        if self._packed is not None:
            return repair_population(self.data, X, self._rng, packed=self._packed)
        # Every cell feasible: the kernel's two clips; no mask, no draw.
        X = np.maximum(X, 0)
        np.minimum(X, self.data.num_qpus - 1, out=X)
        return X

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Random init seeded with the two objective extremes.

        The first individual assigns every job to its highest-fidelity
        feasible QPU (the fidelity extreme); the second greedily packs for
        minimum JCT (the completion-time extreme). Seeding both stretches
        the initial front across the whole tradeoff, which plain random
        integer initialization cannot reach for batch sizes of ~100 genes.
        """
        X = rng.integers(0, self.data.num_qpus, size=(n, self.n_var))
        X = self.repair(X)
        data = self.data
        masked_fid = np.where(data.feasible, data.fidelity, -np.inf)
        X[0] = np.argmax(masked_fid, axis=1)
        if n > 1:
            # Greedy min-JCT: place each job where queue + load so far is
            # smallest (infeasible QPUs cost inf; the first minimum wins,
            # as with np.argmin), updating the projected load as we go — on
            # Python lists: N argmins over Q ~ 4 floats were all overhead.
            cost = np.where(data.feasible, data.exec_seconds, np.inf).tolist()
            load = data.waiting_seconds.tolist()
            greedy = []
            for row in cost:
                projected = [w + c for w, c in zip(load, row)]
                q = projected.index(min(projected))
                greedy.append(q)
                load[q] += row[q]
            X[1] = greedy
        return X

    # ------------------------------------------------------------------
    def assignment_stats(self, x: np.ndarray) -> dict[str, float | list[float]]:
        """Mean JCT / fidelity / exec time of one assignment vector."""
        return assignment_stats(self.data, x)


def assignment_stats(data: SchedulingInput, x: np.ndarray) -> dict[str, float | list[float]]:
    """Mean JCT / fidelity / exec stats of one assignment over ``data``.

    Module-level so the scheduler's fold-in stage can score the
    optimization stage's chosen solution without reconstructing its
    :class:`SchedulingProblem`.
    """
    rows = np.arange(data.num_jobs)
    exec_sel = data.exec_seconds[rows, x]
    fid_sel = data.fidelity[rows, x]
    totals = np.bincount(x, weights=exec_sel, minlength=data.num_qpus)
    jct = data.waiting_seconds[x] + totals[x]
    return {
        "mean_jct": float(jct.mean()),
        "p95_jct": float(np.percentile(jct, 95)),
        "mean_fidelity": float(fid_sel.mean()),
        "p95_fidelity": float(np.percentile(fid_sel, 95)),
        "mean_exec_seconds": float(exec_sel.mean()),
        "per_qpu_load": totals.tolist(),
    }
