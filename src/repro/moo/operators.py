"""Genetic operators customized per the paper (§7):

* random-integer population initialization (in :meth:`Problem.sample`),
* crossover "simulating the operation on real values using an exponential
  probability distribution" — an SBX-style blend whose spread factor is
  drawn from an exponential distribution, rounded back to integers,
* mutation "perturbing solutions within a parent's vicinity using a
  polynomial probability distribution" — classic polynomial mutation,
  rounded to integers,
* binary tournament selection on (rank, crowding distance).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "tournament_selection",
    "exponential_crossover",
    "polynomial_mutation",
]


def tournament_selection(
    rank: np.ndarray,
    crowding: np.ndarray,
    n_parents: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Binary tournaments: lower rank wins; ties broken by larger crowding."""
    n = len(rank)
    a = rng.integers(0, n, n_parents)
    b = rng.integers(0, n, n_parents)
    rank_a, rank_b = rank[a], rank[b]
    better_crowd = crowding[a] >= crowding[b]
    pick_a = (rank_a < rank_b) | ((rank_a == rank_b) & better_crowd)
    return np.where(pick_a, a, b)


def _to_bounded_int(x: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """``np.clip(np.rint(x), lower, upper)`` as int64, computed in place
    in the float scratch array ``x`` without the ``np.clip`` wrapper."""
    np.rint(x, out=x)
    np.maximum(x, lower, out=x)
    np.minimum(x, upper, out=x)
    return x.astype(np.int64)


def exponential_crossover(
    parents_a: np.ndarray,
    parents_b: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    rng: np.random.Generator,
    *,
    rate: float = 0.9,
    beta_scale: float = 0.35,
) -> tuple[np.ndarray, np.ndarray]:
    """SBX-flavoured integer crossover with exponentially distributed spread.

    Children are ``0.5 [(1 ± beta) p_a + (1 ∓ beta) p_b]`` with
    ``beta ~ Exp(beta_scale)`` per gene, rounded and clipped. ``rate`` is
    the per-gene crossover probability; untouched genes copy the parents.
    """
    pa = parents_a.astype(float)
    pb = parents_b.astype(float)
    shape = pa.shape
    beta = rng.exponential(beta_scale, shape)
    do = rng.random(shape) < rate
    more, less = 1 + beta, 1 - beta
    c1 = np.where(do, 0.5 * (more * pa + less * pb), pa)
    c2 = np.where(do, 0.5 * (less * pa + more * pb), pb)
    return _to_bounded_int(c1, lower, upper), _to_bounded_int(c2, lower, upper)


def polynomial_mutation(
    X: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    rng: np.random.Generator,
    *,
    rate: float | None = None,
    eta: float = 12.0,
) -> np.ndarray:
    """Deb's polynomial mutation on integers.

    Default per-gene rate is ``1/n_var``. The perturbation magnitude follows
    the polynomial distribution with index ``eta``; larger eta keeps
    children closer to the parent ("within a parent's vicinity").
    """
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
    return _to_bounded_int(X + do * delta * span, lower, upper)
