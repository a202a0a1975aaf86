"""Zero-noise extrapolation factories.

Each factory fits measured expectation values (or probabilities) at several
noise scale factors and extrapolates to the zero-noise limit. Mirrors
Mitiq's ``LinearFactory`` / ``RichardsonFactory`` / ``ExpFactory`` /
``PolyFactory``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "LinearFactory",
    "PolyFactory",
    "RichardsonFactory",
    "ExpFactory",
    "get_factory",
]


class _Factory:
    name = "base"

    def extrapolate(self, scale_factors, values) -> float:
        raise NotImplementedError

    def __call__(self, scale_factors, values) -> float:
        x = np.asarray(scale_factors, dtype=float)
        y = np.asarray(values, dtype=float)
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError("scale_factors and values must be equal-length 1-D")
        if len(x) < 2:
            raise ValueError("extrapolation needs at least two scale factors")
        if len(np.unique(x)) != len(x):
            raise ValueError("scale factors must be distinct")
        return float(self.extrapolate(x, y))


class LinearFactory(_Factory):
    """Least-squares straight line through (scale, value), read at scale 0."""

    name = "linear"

    def extrapolate(self, x, y) -> float:
        coeffs = np.polyfit(x, y, 1)
        return float(np.polyval(coeffs, 0.0))


class PolyFactory(_Factory):
    """Polynomial fit of configurable order."""

    name = "poly"

    def __init__(self, order: int = 2) -> None:
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order

    def extrapolate(self, x, y) -> float:
        order = min(self.order, len(x) - 1)
        coeffs = np.polyfit(x, y, order)
        return float(np.polyval(coeffs, 0.0))


class RichardsonFactory(_Factory):
    """Richardson extrapolation: exact-degree polynomial through all points.

    Classic ZNE (Temme et al. 2017): the zero-noise value is the
    Lagrange-interpolant evaluated at 0.
    """

    name = "richardson"

    def extrapolate(self, x, y) -> float:
        total = 0.0
        for i in range(len(x)):
            term = y[i]
            for j in range(len(x)):
                if i != j:
                    term *= x[j] / (x[j] - x[i])
            total += term
        return float(total)


class ExpFactory(_Factory):
    """Exponential-decay fit ``y = a + b * exp(-c * x)``.

    Matches how fidelity-like observables decay with noise; falls back to
    linear when the nonlinear fit fails to converge.
    """

    name = "exp"

    def __init__(self, asymptote: float | None = None) -> None:
        self.asymptote = asymptote

    def extrapolate(self, x, y) -> float:
        # Imported on use: scipy.optimize is a sizeable share of
        # ``import repro`` and simulator runs never extrapolate.
        from scipy.optimize import curve_fit

        try:
            if self.asymptote is not None:
                a = self.asymptote

                def model(t, b, c):
                    return a + b * np.exp(-c * t)

                popt, _ = curve_fit(
                    model, x, y, p0=(y[0] - a, 0.5), maxfev=5000
                )
                return float(a + popt[0])

            def model(t, a, b, c):
                return a + b * np.exp(-c * t)

            popt, _ = curve_fit(
                model, x, y, p0=(y[-1], y[0] - y[-1], 0.5), maxfev=5000
            )
            return float(popt[0] + popt[1])
        except (RuntimeError, TypeError):
            return LinearFactory().extrapolate(x, y)


def get_factory(name: str, **kwargs) -> _Factory:
    """Factory registry keyed by the names used in execution configs."""
    table = {
        "linear": LinearFactory,
        "LinearFactory": LinearFactory,
        "poly": PolyFactory,
        "PolyFactory": PolyFactory,
        "richardson": RichardsonFactory,
        "RichardsonFactory": RichardsonFactory,
        "exp": ExpFactory,
        "ExpFactory": ExpFactory,
    }
    if name not in table:
        raise KeyError(f"unknown extrapolation factory {name!r}")
    return table[name](**kwargs)
