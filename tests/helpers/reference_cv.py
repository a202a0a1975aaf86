"""K-fold degree selection as the estimator first ran it.

``repro.estimator.models._select_and_fit`` picks the polynomial degree of
each estimator by K-fold cross-validated R² (paper §6).  It used to fit a
fresh ``make_polynomial_regression(degree, alpha=alpha)`` pipeline on every
training fold of every candidate degree and score it on the held-out fold:
3 degrees x 5 folds ridge fits per target, each expanding, standardizing
and solving from scratch.  This module keeps that loop.
``tests/test_ml_moo.py`` holds the one-pass selection
(``repro.ml.polynomial_ridge_cv``) and ``_select_and_fit`` to it: the same
selected degree, the same final model, and each mean R² within 1e-8
relative — the one-pass kernel solves different but equivalent linear
systems, so the last bits differ.
"""

import numpy as np

from repro.ml import KFold, make_polynomial_regression, r2_score

__all__ = ["cross_val_score", "reference_degree_selection"]


def cross_val_score(
    model_factory,
    X,
    y,
    *,
    n_splits: int = 5,
    metric=r2_score,
    seed: int | None = 0,
) -> np.ndarray:
    """Fit a fresh model per fold; returns the per-fold metric values.

    ``model_factory`` is a zero-argument callable producing an unfitted
    model with ``fit``/``predict`` (e.g. ``lambda: make_polynomial_regression(2)``).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    scores = []
    for train, test in KFold(n_splits=n_splits, seed=seed).split(len(X)):
        model = model_factory()
        model.fit(X[train], y[train])
        scores.append(metric(y[test], model.predict(X[test])))
    return np.array(scores)


def reference_degree_selection(X, y, degrees, *, alpha, n_splits=5, seed=0):
    """``(scores, best)``: the mean fold R² of each entry of ``degrees``, in
    order, and the degree the selection loop keeps — the first one whose
    score beats every earlier one."""
    scores = [
        float(
            np.mean(
                cross_val_score(
                    lambda d=degree: make_polynomial_regression(d, alpha=alpha),
                    X,
                    y,
                    n_splits=n_splits,
                    seed=seed,
                )
            )
        )
        for degree in degrees
    ]
    best, best_score = None, -np.inf
    for degree, score in zip(degrees, scores):
        if score > best_score:
            best, best_score = degree, score
    return scores, best
