"""Minimal ML stack (scikit-learn substitute): linear/ridge regression,
polynomial features, scaling, K-fold degree selection, regression
metrics, pipelines."""

from .features import PolynomialFeatures, StandardScaler
from .linear import LinearRegression, Ridge
from .metrics import mean_absolute_error, r2_score, root_mean_squared_error
from .model_selection import KFold, polynomial_ridge_cv, train_test_split
from .pipeline import Pipeline, make_polynomial_regression

__all__ = [
    "LinearRegression",
    "Ridge",
    "PolynomialFeatures",
    "StandardScaler",
    "mean_absolute_error",
    "r2_score",
    "root_mean_squared_error",
    "KFold",
    "polynomial_ridge_cv",
    "train_test_split",
    "Pipeline",
    "make_polynomial_regression",
]
