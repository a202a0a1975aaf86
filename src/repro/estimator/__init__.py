"""Hybrid resource estimation (§6): features, synthetic training data,
regression models, numerical baseline, cost model, and plan generation."""

from .cache import CachedEstimator, CacheStats, EstimateCache
from .cost import TABLE1_RATES, ResourceRates, plan_cost
from .source import (
    EstimateSource,
    PairwiseEstimateSource,
    feasibility_matrix,
    require_estimate_source,
)
from .dataset import EstimatorDataset, generate_dataset
from .estimator import ResourceEstimator
from .features import (
    FIDELITY_FEATURE_NAMES,
    RUNTIME_FEATURE_NAMES,
    fidelity_features,
    mitigation_flags,
    runtime_features,
)
from .models import RegressionEstimator, TrainedEstimators, train_estimators
from .numerical import NumericalEstimator
from .plans import ResourcePlan, generate_resource_plans

__all__ = [
    "EstimateSource",
    "PairwiseEstimateSource",
    "feasibility_matrix",
    "require_estimate_source",
    "FIDELITY_FEATURE_NAMES",
    "RUNTIME_FEATURE_NAMES",
    "fidelity_features",
    "mitigation_flags",
    "runtime_features",
    "EstimatorDataset",
    "generate_dataset",
    "RegressionEstimator",
    "TrainedEstimators",
    "train_estimators",
    "NumericalEstimator",
    "TABLE1_RATES",
    "ResourceRates",
    "plan_cost",
    "ResourcePlan",
    "generate_resource_plans",
    "ResourceEstimator",
    "CachedEstimator",
    "CacheStats",
    "EstimateCache",
]
