"""K-fold degree selection as the estimator first ran it.

``repro.estimator.models._select_and_fit`` picks the polynomial degree of
each estimator by K-fold cross-validated R² (paper §6).  It used to fit a
fresh model (polynomial features, standardization, ridge) on every
training fold of every candidate degree and score it on the held-out
fold: 3 degrees x 5 folds ridge fits per target, each expanding,
standardizing and solving from scratch.  This module keeps that loop,
one ``PolynomialRidge(degree, alpha)`` per fit.
``tests/test_ml_moo.py`` holds the one-pass selection
(``repro.ml.polynomial_ridge_cv``) and ``_select_and_fit`` to it: the same
selected degree, the same final model, and each mean R² within 1e-8
relative — the one-pass kernel solves different but equivalent linear
systems, so the last bits differ.

:func:`whole_dataset_ridge_cv` keeps the one-pass kernel itself as it
was before it expanded a fold at a time; that one ``src/`` must equal
bit for bit.
"""

import math

import numpy as np

from helpers.reference_models import polynomial_transform_reference
from repro.ml import PolynomialRidge, r2_score
from repro.ml.model_selection import _folds

__all__ = ["reference_degree_selection", "whole_dataset_ridge_cv"]


def reference_degree_selection(X, y, degrees, *, alpha, n_splits=5, seed=0):
    """``(scores, best)``: the mean fold R² of each entry of ``degrees``, in
    order, and the degree the selection loop keeps — the first one whose
    score beats every earlier one."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    folds = _folds(len(X), n_splits, seed)
    scores = [
        float(
            np.mean(
                [
                    r2_score(
                        y[test],
                        PolynomialRidge(degree, alpha).fit(X[train], y[train]).predict(X[test]),
                    )
                    for train, test in folds
                ]
            )
        )
        for degree in degrees
    ]
    best, best_score = None, -np.inf
    for degree, score in zip(degrees, scores):
        if score > best_score:
            best, best_score = degree, score
    return scores, best


def whole_dataset_ridge_cv(X, y, degrees, *, alpha, n_splits=5, seed=0):
    """``repro.ml.polynomial_ridge_cv`` as it was before it expanded a fold
    at a time: ``X`` expanded once, all rows, at the top degree, and every
    fold's training and held-out rows copied out of that one expansion.

    ``src/`` now expands each fold's rows on its own, which allocates a
    fold at a time; rows expand independently and the per-column mean and
    scale see the same rows, so every score must stay ``float.hex``-equal
    to this one.  The expansion is the definitional
    :func:`~helpers.reference_models.polynomial_transform_reference`
    (bit-equal to ``PolynomialFeatures.transform``, held separately) and
    the solver is copied below, so nothing here moves when ``repro.ml``
    does."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    distinct = sorted(set(degrees))
    widths = [math.comb(X.shape[1] + d, d) - 1 for d in distinct]
    expanded = polynomial_transform_reference(X, distinct[-1])
    totals = np.zeros(len(distinct))
    for train, test in _folds(len(X), n_splits, seed):
        fit = expanded[train]  # a copy: standardized in place
        mean = fit.mean(axis=0)
        fit -= mean
        scale = np.sqrt(np.einsum("ij,ij->j", fit, fit) / len(fit))
        scale[scale < 1e-12] = 1.0  # the model's rule for a constant column
        fit /= scale
        held = expanded[test]  # a copy too
        held -= mean
        held /= scale
        y_mean = float(y[train].mean())
        coefs = _prefix_ridge(fit, y[train] - y_mean, widths, alpha)
        totals += [r2_score(y[test], held[:, : len(c)] @ c + y_mean) for c in coefs]
    mean_r2 = dict(zip(distinct, totals / n_splits))
    return np.array([mean_r2[d] for d in degrees])


def _prefix_ridge(Z, yc, widths, alpha):
    """Ridge coefficients on the leading ``w`` columns of the centered
    ``Z`` for each of the ascending ``widths`` (``repro.ml``'s, copied)."""
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
