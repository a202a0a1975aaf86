"""Reference loops the vectorized NSGA-II kernels replaced, kept verbatim.

``src/`` runs :func:`repro.scheduler.formulation.evaluate_population` /
``repair_population`` and :func:`repro.moo.sorting.front_ranks`; these
are the per-individual / per-violation / per-front forms they must equal
**bit for bit** (values and, for repair, RNG stream position).
``benchmarks/conftest.py``'s ``nsga_reference_patch`` rebuilds the
pre-kernel hot path from them.

:func:`front_ranks_matrix_peel` is ``front_ranks`` as every generation
ran it before the two-objective sweep (one ``(n, n)`` domination matrix,
peeled) — the "before" arm of the perf gates.
:func:`fast_non_dominated_sort` is an *independent* oracle: Deb et
al.'s (2002) textbook peel over pure-Python pairwise domination, with no
import from ``repro.moo.sorting`` — a test comparing ``front_ranks``
with it never compares the kernel with itself.
:func:`polynomial_mutation_dense` is the mutation every generation ran
before it computed ``delta`` only at the genes that mutate.
:func:`tenant_scan_order_sorted` is the rebalancer's tenant-aware scan
order as a full queue count plus a full queue sort — what
``ThresholdRebalancePolicy._tenant_scan_order`` did per migrated job
before it read the shard's counts and scanned lazily.
"""

from __future__ import annotations

import numpy as np

from repro.moo.sorting import dominates_matrix
from repro.scheduler.formulation import SchedulingInput

__all__ = [
    "evaluate_reference",
    "fast_non_dominated_sort",
    "front_ranks_matrix_peel",
    "polynomial_mutation_dense",
    "repair_reference",
    "tenant_scan_order_sorted",
]


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


def polynomial_mutation_dense(
    X: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    rng: np.random.Generator,
    *,
    rate: float | None = None,
    eta: float = 12.0,
) -> np.ndarray:
    """The dense polynomial mutation :func:`repro.moo.operators.
    polynomial_mutation` replaced: both powers and the ``where`` over
    every gene, for the ``1 / n_var`` that mutate — kept as the
    regression/benchmark reference."""
    X = X.astype(float)
    n_var = X.shape[1]
    p = 1.0 / n_var if rate is None else rate
    span = (upper - lower).astype(float)
    span[span == 0] = 1.0
    u = rng.random(X.shape)
    do = rng.random(X.shape) < p
    # delta in [-1, 1] with polynomial density.
    exp = 1.0 / (eta + 1.0)
    delta = np.where(
        u < 0.5,
        (2.0 * u) ** exp - 1.0,
        1.0 - (2.0 * (1.0 - u)) ** exp,
    )
    x = X + do * delta * span
    np.rint(x, out=x)
    np.maximum(x, lower, out=x)
    np.minimum(x, upper, out=x)
    return x.astype(np.int64)


def front_ranks_matrix_peel(F: np.ndarray) -> np.ndarray:
    """The matrix-peel ``front_ranks`` the two-objective sweep replaced
    on the cycle path — kept as the regression/benchmark reference."""
    n = len(F)
    rank = np.zeros(n, dtype=np.int64)
    if n == 0:
        return rank
    dom = dominates_matrix(F)
    counts = dom.sum(axis=0).astype(np.int64)
    remaining = np.ones(n, dtype=bool)
    r = 0
    while remaining.any():
        current = np.where(remaining & (counts == 0))[0]
        if len(current) == 0:  # numerical ties: flush the rest as one front
            current = np.where(remaining)[0]
        rank[current] = r
        remaining[current] = False
        # Removing the current front decrements its dominatees' counters.
        counts -= dom[current].sum(axis=0)
        r += 1
    return rank


def fast_non_dominated_sort(F: np.ndarray) -> list[np.ndarray]:
    """Partition indices into Pareto fronts (front 0 = non-dominated).

    Deb's fast-non-dominated-sort as printed: per individual the set it
    dominates and the count dominating it, then peel the zero-count set,
    decrementing the counts of what each peeled member dominates.
    """
    rows = [tuple(row) for row in np.asarray(F).tolist()]
    n = len(rows)

    def dominates(a: tuple, b: tuple) -> bool:
        return all(x <= y for x, y in zip(a, b)) and any(
            x < y for x, y in zip(a, b)
        )

    dominated = [
        [j for j in range(n) if dominates(rows[i], rows[j])] for i in range(n)
    ]
    count = [0] * n
    for members in dominated:
        for j in members:
            count[j] += 1
    fronts = []
    current = [i for i in range(n) if count[i] == 0]
    while current:
        fronts.append(np.array(current, dtype=np.int64))
        following = []
        for i in current:
            for j in dominated[i]:
                count[j] -= 1
                if count[j] == 0:
                    following.append(j)
        current = sorted(following)
    return fronts


def tenant_scan_order_sorted(pending: list) -> list[int] | None:
    """``ThresholdRebalancePolicy``'s former ``_dominant_tenant`` +
    ``_tenant_scan_order``, verbatim: the dominant tenant's indices newest-first, then everyone
    else's newest-first; ``None`` for a queue with no tenant-tagged job."""
    counts: dict[str, int] = {}
    for job in pending:
        if job.tenant_id is not None:
            counts[job.tenant_id] = counts.get(job.tenant_id, 0) + 1
    if not counts:
        return None
    dominant = min(counts, key=lambda tid: (-counts[tid], tid))
    return sorted(
        range(len(pending)),
        key=lambda i: (
            0 if pending[i].tenant_id == dominant else 1,
            -i,
        ),
    )
