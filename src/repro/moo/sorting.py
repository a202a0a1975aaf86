"""Non-dominated sorting and crowding distance (NSGA-II internals).

Vectorized with NumPy.  Domination is computed as a pairwise boolean
matrix built in one fused pass over the objectives (two ``(n, n)``
accumulators instead of materializing the ``(n, n, m)`` broadcast
twice), fronts are peeled iteratively into a rank vector without
re-sorting, and crowding distances for *every* front come from one
segment-wise ranked sweep per objective (:func:`crowding_by_rank`) —
the kernel :class:`~repro.moo.nsga2.NSGA2` shares between selection
and elitist truncation.  All outputs are bit-identical to the
per-front reference loops (locked in ``tests/test_ml_moo.py``).
"""

from __future__ import annotations

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

    One domination matrix, then iterative peeling on the dominator
    counters — no per-front re-sorting, no index-list bookkeeping.
    """
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
    positions = np.arange(n)
    for j in range(m):
        order = np.lexsort((F[:, j], rank))
        ranks_sorted = rank[order]
        starts = np.flatnonzero(
            np.r_[True, ranks_sorted[1:] != ranks_sorted[:-1]]
        )
        ends = np.r_[starts[1:], n]  # exclusive
        Fo = F[order, j]
        # Segment extremes get infinite distance (assignment, matching
        # the reference's overwrite semantics across objectives).
        dist[order[starts]] = np.inf
        dist[order[ends - 1]] = np.inf
        sizes = ends - starts
        span = Fo[ends - 1] - Fo[starts]
        seg_of = np.repeat(np.arange(len(starts)), sizes)
        pos_in_seg = positions - starts[seg_of]
        interior = (
            (pos_in_seg >= 1)
            & (pos_in_seg <= sizes[seg_of] - 2)
            & (span[seg_of] > 1e-300)
        )
        if interior.any():
            p = positions[interior]
            gaps = (Fo[p + 1] - Fo[p - 1]) / span[seg_of[interior]]
            dist[order[p]] += gaps
    return dist
