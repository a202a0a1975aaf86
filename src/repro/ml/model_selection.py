"""Model selection: the K-fold degree selection of polynomial ridge
regression.

The paper trains and evaluates its estimators "through K-fold
cross-validation, using the R^2 score as the primary evaluation metric".
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .features import PolynomialFeatures
from .metrics import r2_score

__all__ = ["polynomial_ridge_cv"]


def _folds(n: int, n_splits: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(train, test)`` row indices of ``n_splits`` consecutive folds of
    the ``n`` rows shuffled by ``seed``."""
    if n_splits < 2:
        raise ValueError("n_splits must be >= 2")
    if n < n_splits:
        raise ValueError(f"cannot split {n} samples into {n_splits} folds")
    indices = np.arange(n)
    np.random.default_rng(seed).shuffle(indices)
    sizes = np.full(n_splits, n // n_splits)
    sizes[: n % n_splits] += 1
    folds, start = [], 0
    for size in sizes:
        test = indices[start : start + size]
        folds.append((np.concatenate([indices[:start], indices[start + size :]]), test))
        start += size
    return folds


def polynomial_ridge_cv(
    X, y, degrees: Sequence[int], *, alpha: float, n_splits: int = 5, seed: int = 0
) -> np.ndarray:
    """Mean K-fold R² of ``PolynomialRidge(d, alpha)`` for each entry of
    ``degrees``, in one pass per fold.

    Equal in real arithmetic to fitting and scoring one model per degree
    and fold (only the last bits differ), and cheaper:

    - each fold's training rows are expanded once, at the top degree (the
      degree-d monomials are a prefix of the degree-(d+1) ones, scaling is
      per column), into one buffer shared by the folds, and standardized
      in place as ``PolynomialRidge.fit`` does; the held-out rows take
      the buffer once the fold is solved.  Standardized columns have zero
      mean, so this skips the model's second centring.
    - every degree no wider than the fold's training rows solves (LU,
      ``np.linalg.solve``) on the leading block of one Gram matrix.
    - a wider degree solves the rows x rows dual system:
      ``w = Zᵀ (Z Zᵀ + αI)⁻¹ (y - ȳ)``.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.shape != (len(X),):
        raise ValueError(f"X {X.shape} needs one row per entry of a 1-D y {y.shape}")
    for name, values in (("X", X), ("y", y)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} has a non-finite value")
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    if not degrees or min(degrees) < 1:
        raise ValueError(f"degrees must be a non-empty list of ints >= 1, got {degrees!r}")
    distinct = sorted(set(degrees))
    widths = [math.comb(X.shape[1] + d, d) - 1 for d in distinct]
    poly = PolynomialFeatures(distinct[-1]).fit(X)
    folds = _folds(len(X), n_splits, seed)
    # Every fold's rows expand into one buffer, training rows first and,
    # once solved, held-out rows: a fresh array would fault its pages in.
    buffer = np.empty((len(X) - len(X) // n_splits, widths[-1]))
    totals = np.zeros(len(distinct))
    for train, test in folds:
        fit = poly._fill(X[train], buffer[: len(train)])  # standardized in place
        mean = fit.mean(axis=0)
        fit -= mean
        scale = np.sqrt(np.einsum("ij,ij->j", fit, fit) / len(fit))
        scale[scale < 1e-12] = 1.0  # PolynomialRidge's rule for a constant column
        fit /= scale
        y_mean = float(y[train].mean())
        coefs = _prefix_ridge(fit, y[train] - y_mean, widths, alpha)
        held = poly._fill(X[test], buffer[: len(test)])
        held -= mean
        held /= scale
        totals += [r2_score(y[test], held[:, : len(c)] @ c + y_mean) for c in coefs]
    mean_r2 = dict(zip(distinct, totals / n_splits))
    return np.array([mean_r2[d] for d in degrees])


def _prefix_ridge(Z, yc, widths: list[int], alpha: float) -> list[np.ndarray]:
    """Ridge coefficients on the leading ``w`` columns of the centered
    ``Z`` for each of the ascending ``widths``."""
    rows = len(Z)
    narrow = [w for w in widths if w <= rows]
    coefs = []
    if narrow:
        top = Z[:, : narrow[-1]]
        gram = top.T @ top
        gram.flat[:: len(gram) + 1] += alpha  # the diagonal
        rhs = top.T @ yc
        for w in narrow:
            coefs.append(np.linalg.solve(gram[:w, :w], rhs[:w]))
    wide = widths[len(narrow) :]
    kernel = None
    for start, stop in zip([0, *wide], wide):
        block = Z[:, start:stop]
        if kernel is None:
            kernel = block @ block.T
        else:
            kernel += block @ block.T
        # The last system may take the kernel itself: nothing adds to it.
        system = kernel if stop == wide[-1] else kernel.copy()
        system.flat[:: rows + 1] += alpha
        coefs.append(Z[:, :stop].T @ np.linalg.solve(system, yc))
    return coefs
