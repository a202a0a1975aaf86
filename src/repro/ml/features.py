"""The feature map: polynomial expansion."""

from __future__ import annotations

from itertools import combinations_with_replacement

import numpy as np

__all__ = ["PolynomialFeatures"]

#: Most output cells ``PolynomialFeatures.transform`` fills in one slice of rows.
_SLICE_ELEMENTS = 2**16


class PolynomialFeatures:
    """All monomials of the input features up to ``degree``.

    Matches scikit-learn's ordering: degree-1 terms, then degree-2
    combinations with replacement, etc.; no bias column.
    """

    def __init__(self, degree: int) -> None:
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.degree = degree
        self._combos: list[tuple[int, ...]] | None = None

    def fit(self, X) -> "PolynomialFeatures":
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"PolynomialFeatures: X must be 2-D, got shape {X.shape}")
        self.n_features_in_ = X.shape[1]
        # _combos keeps the flat sklearn-ordered monomial list; _blocks
        # holds, per degree >= 2, where its columns start and two index
        # arrays: the output column of each monomial's parent (the combo
        # minus its last factor, which combinations_with_replacement
        # listed one degree earlier) and the input column of that last
        # factor.  The definitional left-to-right product of (i1..id) is
        # the parent's product times x_id, so transform() fills a degree
        # with one multiply per column, bit for bit (the scheduling hot
        # path calls transform per estimate-cache miss).
        combos: list[tuple[int, ...]] = []
        self._blocks = []
        column: dict[tuple[int, ...], int] = {}
        for d in range(1, self.degree + 1):
            combos_d = list(combinations_with_replacement(range(self.n_features_in_), d))
            if d > 1:
                parent = np.array([column[c[:-1]] for c in combos_d], dtype=np.intp)
                last = np.array([c[-1] for c in combos_d], dtype=np.intp)
                self._blocks.append((len(combos), parent, last))
            column = {c: len(combos) + j for j, c in enumerate(combos_d)}
            combos.extend(combos_d)
        self._combos = combos
        self._rows_per_slice = max(1, _SLICE_ELEMENTS // max(1, len(combos)))
        return self

    def transform(self, X) -> np.ndarray:
        """Each degree >= 2 is one ``np.multiply(out.take(parent, 1), X.take(last, 1))``
        per slice of rows of at most ``_SLICE_ELEMENTS`` output cells, so both
        temporaries stay bounded; rows are independent, so slicing moves no bit."""
        if self._combos is None:
            raise RuntimeError("transformer is not fitted")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"fitted on {self.n_features_in_} columns, got an array of shape {X.shape}"
            )
        return self._fill(X, np.empty((X.shape[0], len(self._combos))))

    def _fill(self, X: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``transform`` of a checked float ``X``, written into ``out``."""
        if len(X) > self._rows_per_slice:
            step = self._rows_per_slice
            for r in range(0, len(X), step):
                self._fill(X[r:r + step], out[r:r + step])
            return out
        out[:, :self.n_features_in_] = X
        for start, parent, last in self._blocks:
            np.multiply(
                out.take(parent, 1), X.take(last, 1), out=out[:, start:start + len(last)]
            )
        return out

