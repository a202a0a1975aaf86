"""The estimator's one model (paper §6): ridge regression on standardized
polynomial features, with an intercept.

Solved with numpy's LAPACK alone — ``np.linalg.solve`` (LU) on the
normal equations with Tikhonov regularization — so training imports no
scipy.
"""

from __future__ import annotations

import math

import numpy as np

from .features import PolynomialFeatures

__all__ = ["PolynomialRidge"]


class PolynomialRidge:
    """``y = z(X) w + b``: ``z`` expands ``X`` to every monomial up to
    ``degree`` and standardizes each column by the training rows' mean
    and standard deviation (a constant column divides by 1); ``w`` is the
    ridge solution with penalty ``alpha``."""

    def __init__(self, degree: int, alpha: float) -> None:
        if not (math.isfinite(alpha) and alpha > 0):
            raise ValueError(f"alpha must be finite and > 0, got {alpha}")
        self.poly = PolynomialFeatures(degree)
        self.alpha = alpha
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    def fit(self, X, y) -> "PolynomialRidge":
        """Refuses unless ``X`` is 2-D with at least one row, ``y`` is 1-D
        with one entry per row, and both are finite: numpy's solver checks
        none of it."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or not len(X) or y.shape != (len(X),):
            raise ValueError(
                f"PolynomialRidge: X {X.shape} needs at least one row and one per "
                f"entry of a 1-D y {y.shape}"
            )
        for field, values in (("X", X), ("y", y)):
            if not np.isfinite(values).all():
                raise ValueError(f"PolynomialRidge: {field} has a non-finite value")
        Z = self.poly.fit(X).transform(X)
        self.mean_ = Z.mean(axis=0)
        std = Z.std(axis=0)
        std[std < 1e-12] = 1.0
        self.scale_ = std
        Z -= self.mean_
        Z /= self.scale_
        # The standardized columns are centred again: in real arithmetic
        # that subtracts zero, but it sets the final model's last bits.
        z_mean = Z.mean(axis=0)
        y_mean = float(y.mean())
        Z -= z_mean
        gram = Z.T @ Z
        gram.flat[:: len(gram) + 1] += self.alpha  # the diagonal
        self.coef_ = np.linalg.solve(gram, Z.T @ (y - y_mean))
        self.intercept_ = y_mean - float(z_mean @ self.coef_)
        return self

    def predict(self, X) -> np.ndarray:
        """``z(X) w + b``.  The product is one ``einsum`` contraction,
        which adds each row's terms in the same order whatever rows share
        the call, so a row's value does not depend on its neighbours (a
        BLAS ``Z @ w`` blocks by shape, which moves the last ulp)."""
        if self.coef_ is None:
            raise RuntimeError("model is not fitted")
        Z = self.poly.transform(X)
        Z -= self.mean_
        Z /= self.scale_
        return np.einsum("ij,j->i", Z, self.coef_) + self.intercept_
