"""The estimator's one model (paper §6): ridge regression on standardized
polynomial features, with an intercept.

Solved with numpy's LAPACK alone — ``np.linalg.solve`` (LU) on the
normal equations with Tikhonov regularization — so training imports no
scipy.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

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

    def predict(self, X, segments: Sequence[int] | None = None) -> np.ndarray:
        """``z(X) w + b``, with the bits of one product per ``[segments[s],
        segments[s + 1])`` row slice when ``segments`` (ascending offsets
        ``0 .. len(X)``, or a ``ValueError``) is given.  BLAS blocks a
        matrix-vector product by its shape, so a row's last ulp depends on
        how many rows share the call: a caller that stacks independent
        batches passes their bounds and gets the bits a ``predict`` per
        batch gives.  The feature map works row by row, so it runs once
        over all of ``X``; only the product is split."""
        if self.coef_ is None:
            raise RuntimeError("model is not fitted")
        Z = self.poly.transform(X)
        Z -= self.mean_
        Z /= self.scale_
        return self._linear(Z, segments)

    def _linear(self, Z: np.ndarray, segments: Sequence[int] | None) -> np.ndarray:
        """``Z w + b``, the product of :meth:`predict`.

        Neighbouring segments of one length ``L`` go through a single
        ``matmul`` over the ``(S, L, n)`` view of their rows: matmul runs
        the same ``(L, n) @ (n,)`` kernel once per stack item on the
        pointers a per-segment ``Z[a:b] @ coef`` would pass (splitting an
        axis never copies), so the bits are those of S separate products
        for one NumPy call.  ``Z @ coef`` over all ``S * L`` rows at once
        is *not* equal."""
        if segments is None:
            return Z @ self.coef_ + self.intercept_
        last = len(segments) - 1
        if last < 0 or segments[0] != 0 or segments[last] != len(Z):
            raise ValueError(f"PolynomialRidge: segments {list(segments)} do not tile X")
        out = np.empty(len(Z))
        coef, width = self.coef_, Z.shape[1]
        s = 0
        while s < last:
            a, length = segments[s], segments[s + 1] - segments[s]
            if length < 0:
                raise ValueError(f"PolynomialRidge: segments {list(segments)} do not ascend")
            e = s + 1
            while e < last and segments[e + 1] - segments[e] == length:
                e += 1
            b = segments[e]
            np.matmul(
                Z[a:b].reshape(e - s, length, width),
                coef,
                out=out[a:b].reshape(e - s, length),
            )
            s = e
        out += self.intercept_
        return out
