"""The estimator's model stack (paper §6): polynomial ridge regression,
its feature map, K-fold degree selection and the R² score."""

from .features import PolynomialFeatures
from .linear import PolynomialRidge
from .metrics import r2_score
from .model_selection import polynomial_ridge_cv

__all__ = [
    "PolynomialFeatures",
    "PolynomialRidge",
    "polynomial_ridge_cv",
    "r2_score",
]
