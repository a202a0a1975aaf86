"""Genetic operators customized per the paper (§7):

* random-integer population initialization (in :meth:`Problem.sample`),
* crossover "simulating the operation on real values using an exponential
  probability distribution" — an SBX-style blend whose spread factor is
  drawn from an exponential distribution, rounded back to integers,
* mutation "perturbing solutions within a parent's vicinity using a
  polynomial probability distribution" — classic polynomial mutation,
  rounded to integers,
* binary tournament selection on (rank, crowding distance).

Crossover and mutation work in place on one C-contiguous ``(pop,
n_var)`` float buffer of integer-valued genes, which
:meth:`repro.moo.nsga2.NSGA2.minimize` casts from and to integers once.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "tournament_selection",
    "exponential_crossover",
    "polynomial_mutation",
]

#: Per-gene crossover probability; untouched genes copy the parents.
CROSSOVER_RATE = 0.9
#: Scale of the exponential distribution the spread factor is drawn from.
CROSSOVER_BETA_SCALE = 0.35
#: Polynomial index (larger: closer to the parent); the rate is ``1 / n_var``.
MUTATION_ETA = 12.0


def tournament_selection(
    rank: np.ndarray,
    crowding: np.ndarray,
    n_parents: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Binary tournaments: lower rank wins; ties broken by larger crowding."""
    # One (2, n_parents) draw fills row-major: the stream of two draws of
    # ``n_parents`` (the half-word buffer lives in the bit generator).
    draws = rng.integers(0, len(rank), (2, n_parents))
    (a, b), (rank_a, rank_b), (crowd_a, crowd_b) = draws, rank[draws], crowding[draws]
    pick_a = (rank_a < rank_b) | ((rank_a == rank_b) & (crowd_a >= crowd_b))
    return np.where(pick_a, a, b)


def _round_into_bounds(x: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> None:
    """``np.clip(np.rint(x), lower, upper)``, in place and unwrapped."""
    np.rint(x, out=x)
    np.maximum(x, lower, out=x)
    np.minimum(x, upper, out=x)


def exponential_crossover(
    parents: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    rng: np.random.Generator,
) -> None:
    """SBX-flavoured integer crossover with exponentially distributed spread.

    Row ``i`` of the ``(2 * k, n_var)`` buffer mates with row ``k + i``
    and both are overwritten with their children ``0.5 [(1 ± beta) p_a +
    (1 ∓ beta) p_b]``, ``beta ~ Exp(CROSSOVER_BETA_SCALE)`` per gene,
    rounded and clipped.
    """
    half = len(parents) // 2
    pa, pb = parents[:half], parents[half:]
    beta = rng.exponential(CROSSOVER_BETA_SCALE, pa.shape)
    do = rng.random(pa.shape) < CROSSOVER_RATE
    more, less = 1 + beta, 1 - beta
    c1 = 0.5 * (more * pa + less * pb)
    c2 = 0.5 * (less * pa + more * pb)
    np.copyto(pa, c1, where=do)
    np.copyto(pb, c2, where=do)
    _round_into_bounds(parents, lower, upper)


def polynomial_mutation(
    X: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    span: np.ndarray,
    rng: np.random.Generator,
) -> None:
    """Deb's polynomial mutation on integer-valued floats, in place.

    Each gene mutates with probability ``1 / n_var`` by ``delta * span``
    (``span = upper - lower``, 1 where that is 0), ``delta`` polynomially
    distributed.  Both random blocks cover every gene, so the stream does
    not depend on which genes mutate, but ``delta`` is computed only where
    one does: elsewhere the dense form adds ``False * delta * span``, a
    zero, to an ``x`` that is already the integer it rounds to.
    """
    n_var = X.shape[1]
    u = rng.random(X.shape)
    do = rng.random(X.shape) < 1.0 / n_var
    hit = do.ravel().nonzero()[0]
    u = u.ravel()[hit]
    # delta in [-1, 1] with polynomial density.
    exp = 1.0 / (MUTATION_ETA + 1.0)
    delta = np.where(
        u < 0.5,
        (2.0 * u) ** exp - 1.0,
        1.0 - (2.0 * (1.0 - u)) ** exp,
    )
    X.reshape(-1)[hit] += delta * span[hit % n_var]  # a view: X is contiguous
    _round_into_bounds(X, lower, upper)
