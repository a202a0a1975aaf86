"""Linear models: ordinary least squares and ridge regression, both with
an intercept.

Solved with numpy's LAPACK alone — ``np.linalg.lstsq`` (``gelsd``) for
least squares and ``np.linalg.solve`` (LU) on the normal equations with
Tikhonov regularization for ridge — so training imports no scipy.  The
estimator's polynomial regression (paper §6) is a pipeline of
:class:`~repro.ml.features.PolynomialFeatures` and one of these.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

__all__ = ["LinearRegression", "Ridge"]


def _checked(model, X, y) -> tuple[np.ndarray, np.ndarray]:
    """``X`` and ``y`` as floats, refused unless ``X`` is 2-D with at least
    one row, ``y`` is 1-D with one entry per row, and both are finite:
    numpy's solvers check none of it."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    name = type(model).__name__
    if X.ndim != 2 or not len(X) or y.shape != (len(X),):
        raise ValueError(
            f"{name}: X {X.shape} needs at least one row and one per entry of a 1-D y {y.shape}"
        )
    for field, values in (("X", X), ("y", y)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name}: {field} has a non-finite value")
    return X, y


class LinearRegression:
    """Ordinary least-squares ``y = X w + b``."""

    def __init__(self) -> None:
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    def fit(self, X, y) -> "LinearRegression":
        X, y = _checked(self, X, y)
        A = np.hstack([X, np.ones((len(X), 1))])
        # scipy's cutoff: singular values below eps x the largest are zero.
        sol = np.linalg.lstsq(A, y, rcond=np.finfo(float).eps)[0]
        self.coef_ = sol[:-1]
        self.intercept_ = float(sol[-1])
        return self

    def predict(self, X, segments: Sequence[int] | None = None) -> np.ndarray:
        """``X w + b``, with the bits of one product per ``[segments[s],
        segments[s + 1])`` row slice when ``segments`` (ascending offsets
        ``0 .. len(X)``, or a ``ValueError``) is given.  BLAS blocks a
        matrix-vector product by its shape, so a row's last ulp depends on
        how many rows share the call: a caller that stacks independent
        batches passes their bounds and gets the bits a ``predict`` per
        batch gives.

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
        last = len(segments) - 1
        if last < 0 or segments[0] != 0 or segments[last] != len(X):
            raise ValueError(f"{type(self).__name__}: segments {list(segments)} do not tile X")
        out = np.empty(len(X))
        coef, width = self.coef_, X.shape[1]
        s = 0
        while s < last:
            a, length = segments[s], segments[s + 1] - segments[s]
            if length < 0:
                raise ValueError(f"{type(self).__name__}: segments {list(segments)} do not ascend")
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

    def __init__(self, alpha: float = 1.0) -> None:
        super().__init__()
        if not (alpha >= 0 and math.isfinite(alpha)):
            raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
        self.alpha = alpha

    def fit(self, X, y) -> "Ridge":
        X, y = _checked(self, X, y)
        x_mean = X.mean(axis=0)
        y_mean = float(y.mean())
        Xc = X - x_mean
        gram = Xc.T @ Xc + self.alpha * np.eye(Xc.shape[1])
        self.coef_ = np.linalg.solve(gram, Xc.T @ (y - y_mean))
        self.intercept_ = y_mean - float(x_mean @ self.coef_)
        return self
