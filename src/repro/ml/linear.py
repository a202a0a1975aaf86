"""Linear models: ordinary least squares and ridge regression.

Solved via ``scipy.linalg.lstsq`` / normal equations with Tikhonov
regularization — the estimator's polynomial regression (paper §6) is a
pipeline of :class:`~repro.ml.features.PolynomialFeatures` and one of
these.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np
from scipy import linalg

__all__ = ["LinearRegression", "Ridge"]


class LinearRegression:
    """Ordinary least-squares ``y = X w + b``."""

    def __init__(self, fit_intercept: bool = True) -> None:
        self.fit_intercept = fit_intercept
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    def fit(self, X, y) -> "LinearRegression":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        if self.fit_intercept:
            A = np.hstack([X, np.ones((len(X), 1))])
        else:
            A = X
        sol, *_ = linalg.lstsq(A, y, lapack_driver="gelsd")
        if self.fit_intercept:
            self.coef_ = sol[:-1]
            self.intercept_ = float(sol[-1])
        else:
            self.coef_ = sol
            self.intercept_ = 0.0
        return self

    def predict(self, X, segments: Sequence[int] | None = None) -> np.ndarray:
        """``X w + b``, with the bits of one product per ``[segments[s],
        segments[s + 1])`` row slice when ``segments`` (ascending offsets
        ``0 .. len(X)``) is given.  BLAS blocks a matrix-vector product
        by its shape, so a row's last ulp depends on how many rows share
        the call: a caller that stacks independent batches passes their
        bounds and gets the bits a ``predict`` per batch gives.

        Neighbouring segments of one length ``L`` go through a single
        ``matmul`` over the ``(S, L, n)`` view of their rows: matmul runs
        the same ``(L, n) @ (n,)`` kernel once per stack item on the
        pointers a per-segment ``X[a:b] @ coef`` would pass (splitting an
        axis never copies), so the bits are those of S separate products
        for one NumPy call.  ``X @ coef`` over all ``S * L`` rows at once
        is *not* equal."""
        if self.coef_ is None:
            raise RuntimeError("model is not fitted")
        X = np.asarray(X, dtype=float)
        if segments is None:
            return X @ self.coef_ + self.intercept_
        out = np.empty(len(X))
        coef, width = self.coef_, X.shape[1]
        last = len(segments) - 1
        s = 0
        while s < last:
            a, length = segments[s], segments[s + 1] - segments[s]
            e = s + 1
            while e < last and segments[e + 1] - segments[e] == length:
                e += 1
            b = segments[e]
            np.matmul(
                X[a:b].reshape(e - s, length, width),
                coef,
                out=out[a:b].reshape(e - s, length),
            )
            s = e
        out += self.intercept_
        return out


class Ridge(LinearRegression):
    """L2-regularized least squares (closed form via normal equations)."""

    def __init__(self, alpha: float = 1.0, fit_intercept: bool = True) -> None:
        super().__init__(fit_intercept=fit_intercept)
        if not (alpha >= 0 and math.isfinite(alpha)):
            raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
        self.alpha = alpha

    def fit(self, X, y) -> "Ridge":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        if self.fit_intercept:
            x_mean = X.mean(axis=0)
            y_mean = float(y.mean())
            Xc = X - x_mean
            yc = y - y_mean
        else:
            Xc, yc = X, y
        n_features = Xc.shape[1]
        gram = Xc.T @ Xc + self.alpha * np.eye(n_features)
        self.coef_ = linalg.solve(gram, Xc.T @ yc, assume_a="pos")
        if self.fit_intercept:
            self.intercept_ = y_mean - float(x_mean @ self.coef_)
        else:
            self.intercept_ = 0.0
        return self
