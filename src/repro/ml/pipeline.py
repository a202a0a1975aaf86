"""Minimal transformer/estimator pipeline."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .features import PolynomialFeatures, StandardScaler
from .linear import LinearRegression, Ridge

__all__ = ["Pipeline", "make_polynomial_regression"]


class Pipeline:
    """Chain of fitted transformers ending in an estimator.

    Steps are (name, object) pairs; every step but the last must expose
    ``fit``/``transform``, the last ``fit``/``predict``.
    """

    def __init__(self, steps: list[tuple[str, object]]) -> None:
        if not steps:
            raise ValueError("pipeline needs at least one step")
        self.steps = steps

    def fit(self, X, y) -> "Pipeline":
        data = np.asarray(X, dtype=float)
        for _, step in self.steps[:-1]:
            data = step.fit(data, y).transform(data)
        self.steps[-1][1].fit(data, y)
        return self

    def predict(self, X, segments: Sequence[int] | None = None) -> np.ndarray:
        """Transformers (element-wise per row) run once over all of ``X``;
        ``segments`` only reaches the final estimator's ``predict``."""
        data = np.asarray(X, dtype=float)
        for _, step in self.steps[:-1]:
            data = step.transform(data)
        final = self.steps[-1][1]
        return final.predict(data) if segments is None else final.predict(data, segments)

    def __getitem__(self, name: str):
        for n, step in self.steps:
            if n == name:
                return step
        raise KeyError(name)


def make_polynomial_regression(degree: int = 2, *, alpha: float = 0.0) -> Pipeline:
    """The paper's winning estimator family: polynomial regression on
    standardized monomials.

    A nonzero ``alpha`` switches the final stage to ridge, which stabilizes
    the higher-degree fits on the smaller synthetic datasets (and refuses
    a negative or non-finite ``alpha``).
    """
    estimator = Ridge(alpha=alpha) if alpha != 0 else LinearRegression()
    return Pipeline(
        [
            ("poly", PolynomialFeatures(degree=degree)),
            ("scaler", StandardScaler()),
            ("regressor", estimator),
        ]
    )
