"""Ridge regression on ``scipy.linalg``, as the estimator first solved it.

``repro.ml`` solves every ridge system with ``np.linalg.solve`` (LU), so
training never imports scipy.  It used to call LAPACK through scipy:

* the final fit (now ``PolynomialRidge.fit``) solved its normal equations with
  ``solve(assume_a="pos")`` — a Cholesky ``posv``;
* degree selection (``polynomial_ridge_cv``) factored each fold's one
  Gram matrix once with ``cho_factor`` and ran ``cho_solve`` on the
  factor's leading block for every degree no wider than the fold (the
  leading block of a Cholesky factor is the factor of the leading
  block), and the rows x rows dual system of a wider degree the same way.

This module keeps that route.  ``tests/test_estimator.py`` holds the
numpy route to it: the same selected degree, each mean R² within 1e-9
relative and each training-set prediction within 1e-10 absolute — LU and
Cholesky solve the same systems, so only the last bits differ.
"""

import math

import numpy as np
from scipy import linalg

from repro.estimator.models import _select_and_fit
from repro.ml import PolynomialFeatures, polynomial_ridge_cv, r2_score
from repro.ml.model_selection import _folds

__all__ = ["assert_numpy_route_matches", "ridge_cv", "ridge_fit", "select_and_fit"]


def ridge_fit(X, y, alpha):
    """``(coef, intercept)`` of ridge regression with an intercept on the
    already standardized ``X``, through ``posv``."""
    x_mean = X.mean(axis=0)
    y_mean = float(y.mean())
    Xc = X - x_mean
    gram = Xc.T @ Xc + alpha * np.eye(Xc.shape[1])
    coef = linalg.solve(gram, Xc.T @ (y - y_mean), assume_a="pos")
    return coef, y_mean - float(x_mean @ coef)


def ridge_cv(X, y, degrees, *, alpha, n_splits=5, seed=0):
    """Mean K-fold R² per entry of ``degrees``: ``polynomial_ridge_cv``
    with its systems solved by Cholesky factors."""
    distinct = sorted(set(degrees))
    widths = [math.comb(X.shape[1] + d, d) - 1 for d in distinct]
    expanded = PolynomialFeatures(distinct[-1]).fit(X).transform(X)
    totals = np.zeros(len(distinct))
    for train, test in _folds(len(X), n_splits, seed):
        fit = expanded[train]
        mean = fit.mean(axis=0)
        fit -= mean
        scale = np.sqrt(np.einsum("ij,ij->j", fit, fit) / len(fit))
        scale[scale < 1e-12] = 1.0
        fit /= scale
        held = (expanded[test] - mean) / scale
        y_mean = float(y[train].mean())
        coefs = _prefix_ridge(fit, y[train] - y_mean, widths, alpha)
        totals += [r2_score(y[test], held[:, : len(c)] @ c + y_mean) for c in coefs]
    mean_r2 = dict(zip(distinct, totals / n_splits))
    return np.array([mean_r2[d] for d in degrees])


def _prefix_ridge(Z, yc, widths, alpha):
    rows = len(Z)
    narrow = [w for w in widths if w <= rows]
    coefs = []
    if narrow:
        top = Z[:, : narrow[-1]]
        gram = top.T @ top
        gram.flat[:: len(gram) + 1] += alpha
        factor, _ = linalg.cho_factor(gram, lower=True)
        rhs = top.T @ yc
        for w in narrow:
            coefs.append(linalg.cho_solve((factor[:w, :w], True), rhs[:w]))
    for stop in widths[len(narrow) :]:
        block = Z[:, :stop]
        system = block @ block.T
        system.flat[:: rows + 1] += alpha
        coefs.append(block.T @ linalg.cho_solve(linalg.cho_factor(system, lower=True), yc))
    return coefs


def select_and_fit(X, y, degrees, *, alpha=1e-3, n_splits=5, seed=0):
    """``(scores, degree, predictions)``: the mean R² per degree, the first
    best degree, and the final model's predictions on the training rows
    (polynomial features, standardized, ridge fitted on every row)."""
    scores = ridge_cv(X, y, degrees, alpha=alpha, n_splits=n_splits, seed=seed)
    degree = degrees[int(np.argmax(scores))]
    poly = PolynomialFeatures(degree).fit(X).transform(X)
    scale = poly.std(axis=0)
    scale[scale < 1e-12] = 1.0
    scaled = (poly - poly.mean(axis=0)) / scale
    coef, intercept = ridge_fit(scaled, y, alpha)
    return scores, degree, scaled @ coef + intercept


def assert_numpy_route_matches(X, y, *, degrees=(1, 2, 3), alpha=1e-3, n_splits=5, seed=0):
    """``_select_and_fit`` against :func:`select_and_fit`: the same degree,
    each mean R² within 1e-9 relative, each training-set prediction of
    the final model within 1e-10 absolute."""
    scores, degree, predictions = select_and_fit(
        X, y, degrees, alpha=alpha, n_splits=n_splits, seed=seed
    )
    est = _select_and_fit(
        X, y, "fidelity", degrees=degrees, alpha=alpha, n_splits=n_splits, seed=seed
    )
    assert est.degree == degree
    np.testing.assert_allclose(
        polynomial_ridge_cv(X, y, degrees, alpha=alpha, n_splits=n_splits, seed=seed),
        scores,
        rtol=1e-9,
        atol=0.0,
    )
    np.testing.assert_allclose(est.model.predict(X), predictions, rtol=0.0, atol=1e-10)
