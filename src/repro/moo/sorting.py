"""Non-dominated sorting and crowding distance (NSGA-II internals).

Two objectives — Eq. 1, every scheduling cycle — are ranked by one
lexicographic sort and a sweep (Jensen 2003, "Reducing the run-time
complexity of multiobjective EAs", IEEE TEC 7(5)): no ``(n, n)`` array,
no peel loop, and, ranks being integers, exactly the fronts of Deb et
al.'s (2002) peel.  Any other objective count builds one pairwise
domination matrix in a fused pass over the objectives and peels it into
a rank vector.  The choice is made on ``F.shape[1]``, nothing a caller
sets.  Crowding distances for *every* front come from one segment-wise
ranked sweep per objective (:func:`crowding_by_rank`) — the kernel
:class:`~repro.moo.nsga2.NSGA2` shares between selection and elitist
truncation.  All outputs are bit-identical to the per-front reference
loops (locked in ``tests/test_ml_moo.py``).
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

__all__ = [
    "dominates_matrix",
    "front_ranks",
    "crowding_distance",
    "crowding_by_rank",
    "pareto_front_mask",
]


def dominates_matrix(F: np.ndarray) -> np.ndarray:
    """``D[i, j]`` True iff individual i dominates j (all <=, any <).

    Fused single pass: one ``(n, n)`` comparison per objective folded
    into two boolean accumulators, instead of broadcasting the full
    ``(n, n, m)`` tensor twice and reducing it.
    """
    n, m = F.shape
    less_eq = np.ones((n, n), dtype=bool)
    less = np.zeros((n, n), dtype=bool)
    for j in range(m):
        col_i = F[:, j, None]
        col_j = F[None, :, j]
        less_eq &= col_i <= col_j
        less |= col_i < col_j
    return less_eq & less


def front_ranks(F: np.ndarray) -> np.ndarray:
    """Pareto front rank per individual (0 = non-dominated).

    Two objectives: :func:`_front_ranks_sweep`.  Otherwise one domination
    matrix, then iterative peeling on the dominator counters — no
    per-front re-sorting, no index-list bookkeeping.
    """
    if F.shape[1] == 2:
        return _front_ranks_sweep(F)
    n = len(F)
    rank = np.zeros(n, dtype=np.int64)
    dom = dominates_matrix(F)
    counts = dom.sum(axis=0).astype(np.int64)
    remaining = np.ones(n, dtype=bool)
    r = 0
    while remaining.any():  # never entered when n == 0
        current = np.where(remaining & (counts == 0))[0]
        if len(current) == 0:  # numerical ties: flush the rest as one front
            current = np.where(remaining)[0]
        rank[current] = r
        remaining[current] = False
        # Removing the current front decrements its dominatees' counters.
        counts -= dom[current].sum(axis=0)
        r += 1
    return rank


def _front_ranks_sweep(F: np.ndarray) -> np.ndarray:
    """Front ranks of a two-objective ``F`` (no NaN) in O(n log n).

    In ``(f0, f1)`` order every earlier point has ``f0`` no larger, so it
    dominates the current one exactly when its ``f1`` is no larger and
    the two differ.  Equal points sit next to each other and share a
    front.  ``tails[k]`` is the smallest ``f1`` in front ``k`` — its last
    arrival — and never decreases with ``k``, so the first front that
    does not dominate the point is ``bisect_right(tails, f1)``.
    """
    order = np.lexsort((F[:, 1], F[:, 0]))
    swept: list[int] = []
    tails: list[float] = []
    previous: list[float] | None = None
    k = 0
    for point in F[order].tolist():
        if point != previous:
            f1 = point[1]
            k = bisect_right(tails, f1)
            if k == len(tails):
                tails.append(f1)
            else:
                tails[k] = f1
            previous = point
        swept.append(k)
    rank = np.empty(len(F), dtype=np.int64)
    rank[order] = swept
    return rank


def pareto_front_mask(F: np.ndarray) -> np.ndarray:
    """Boolean mask of non-dominated rows of ``F``."""
    dom = dominates_matrix(F)
    return ~dom.any(axis=0)


def crowding_distance(F: np.ndarray) -> np.ndarray:
    """NSGA-II crowding distance within one front (larger = less crowded)."""
    n, m = F.shape
    if n <= 2:
        return np.full(n, np.inf)
    dist = np.zeros(n)
    for j in range(m):
        order = np.argsort(F[:, j], kind="stable")
        fmin, fmax = F[order[0], j], F[order[-1], j]
        dist[order[0]] = dist[order[-1]] = np.inf
        span = fmax - fmin
        if span <= 1e-300:
            continue
        gaps = (F[order[2:], j] - F[order[:-2], j]) / span
        dist[order[1:-1]] += gaps
    return dist


def crowding_by_rank(F: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Crowding distances for *all* fronts in one ranked sweep.

    Equivalent to ``crowding_distance(F[front])`` scattered back per
    front, but each objective is handled with a single stable lexsort
    keyed on ``(rank, F[:, j])`` followed by segment-wise extreme
    marking and interior-gap accumulation — no per-front Python loop.
    Ties within a front break on array position, exactly like the
    per-front stable argsort (front index arrays are position-ordered),
    so results are bit-identical to the reference loop.
    """
    n, m = F.shape
    dist = np.zeros(n)
    if n == 0:
        return dist
    # Sorted by rank first, every objective sees the same segments.
    sizes = np.bincount(rank)
    sizes = sizes[sizes > 0]
    ends = np.cumsum(sizes)  # exclusive
    starts, last = ends - sizes, ends - 1
    seg_of = np.repeat(np.arange(len(sizes)), sizes)
    pos_in_seg = np.arange(n) - starts[seg_of]
    inner = (pos_in_seg >= 1) & (pos_in_seg <= sizes[seg_of] - 2)
    for j in range(m):
        order = np.lexsort((F[:, j], rank))
        Fo = F[order, j]
        # Segment extremes get infinite distance (assignment, matching
        # the reference's overwrite semantics across objectives).
        dist[order[starts]] = np.inf
        dist[order[last]] = np.inf
        span = Fo[last] - Fo[starts]
        p = np.flatnonzero(inner & (span[seg_of] > 1e-300))
        if len(p):
            dist[order[p]] += (Fo[p + 1] - Fo[p - 1]) / span[seg_of[p]]
    return dist
