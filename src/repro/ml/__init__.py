"""Minimal ML stack (scikit-learn substitute): linear/ridge regression,
polynomial features, scaling, K-fold degree selection, the R² score,
pipelines."""

from .features import PolynomialFeatures, StandardScaler
from .linear import LinearRegression, Ridge
from .metrics import r2_score
from .model_selection import KFold, polynomial_ridge_cv
from .pipeline import Pipeline, make_polynomial_regression

__all__ = [
    "LinearRegression",
    "Ridge",
    "PolynomialFeatures",
    "StandardScaler",
    "r2_score",
    "KFold",
    "polynomial_ridge_cv",
    "Pipeline",
    "make_polynomial_regression",
]
