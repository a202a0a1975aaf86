"""Trained fidelity and runtime estimators (§6).

Polynomial ridge regression with its degree selected by K-fold
cross-validated R^2 — the paper reports polynomial regression winning
with R^2 of 0.976 (fidelity) and 0.998 (execution time); our
model-selection sweep mirrors that procedure over degrees 1-3.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..backends.calibration import CalibrationData
from ..circuits.metrics import CircuitMetrics
from ..ml import PolynomialRidge, polynomial_ridge_cv
from .dataset import EstimatorDataset
from .features import (
    calibration_fidelity_features,
    calibration_runtime_features,
    job_fidelity_features,
    job_runtime_features,
)

__all__ = ["RegressionEstimator", "TrainedEstimators", "train_estimators"]

#: Most stacked rows in one model pass of ``estimate_pairs``.
_CHUNK_ROWS = 512

#: ``target -> (job features, calibration features)``: each model's two builders.
_FEATURES = {
    "fidelity": (job_fidelity_features, calibration_fidelity_features),
    "runtime": (job_runtime_features, calibration_runtime_features),
}


@dataclass
class RegressionEstimator:
    """One trained model + its selection metadata."""

    model: PolynomialRidge
    degree: int
    cv_r2: float
    target: str  # "fidelity" | "runtime"
    log_target: bool = False

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Clipped predictions of :attr:`model`."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        pred = self.model.predict(X)
        if self.log_target:
            pred = np.expm1(np.clip(pred, -20.0, 20.0))
        if self.target == "fidelity":
            pred = np.clip(pred, 0.0, 1.0)
        else:
            pred = np.clip(pred, 0.0, None)
        return pred

    def estimate_pairs(
        self,
        jobs: Sequence[tuple[CircuitMetrics, int, str]],
        groups: Sequence[tuple[CalibrationData, Sequence[int]]],
    ) -> np.ndarray:
        """This model's estimates of many (job, calibration) pairs, flat.

        ``jobs`` are ``(metrics, shots, mitigation)`` triples; each group
        pairs one calibration snapshot (a QPU, a template) with the
        (non-empty) indices of the jobs to score on it.  The groups'
        pairs are stacked into one feature matrix and predicted in slices
        of ``_CHUNK_ROWS`` rows, so a block costs one predict per slice
        rather than one per group and its transient arrays stay bounded.
        A row's value does not depend on the rows beside it
        (:meth:`repro.ml.PolynomialRidge.predict`), so a slice may cut
        through a group.
        """
        if not groups:
            return np.zeros(0)
        job_features, calibration_features = _FEATURES[self.target]
        job_idx = np.concatenate([idx for _, idx in groups])
        rows = np.array([job_features(*job) for job in jobs])
        cals = np.repeat(
            [calibration_features(c) for c, _ in groups], [len(idx) for _, idx in groups], 0
        )
        out = np.empty(len(job_idx))
        for a in range(0, len(out), _CHUNK_ROWS):
            b = a + _CHUNK_ROWS
            out[a:b] = self.predict(np.concatenate([rows[job_idx[a:b]], cals[a:b]], 1))
        return out


@dataclass
class TrainedEstimators:
    """Fidelity + runtime estimators bound to the feature builders."""

    fidelity: RegressionEstimator
    runtime: RegressionEstimator

    def estimate_pairs(
        self,
        jobs: Sequence[tuple[CircuitMetrics, int, str]],
        groups: Sequence[tuple[CalibrationData, Sequence[int]]],
    ) -> tuple[np.ndarray, np.ndarray]:
        """(fidelities, runtimes) of many (job, calibration) pairs, flat:
        :meth:`RegressionEstimator.estimate_pairs` of each model."""
        return self.fidelity.estimate_pairs(jobs, groups), self.runtime.estimate_pairs(jobs, groups)


def _select_and_fit(
    X: np.ndarray,
    y: np.ndarray,
    target: str,
    *,
    degrees: Sequence[int] = (1, 2, 3),
    alpha: float = 1e-3,
    n_splits: int = 5,
    log_target: bool = False,
    seed: int = 0,
) -> RegressionEstimator:
    """Cross-validated degree selection, then fit on the full set.

    Selection runs in one pass per fold (:func:`repro.ml.polynomial_ridge_cv`);
    the final model is one :class:`~repro.ml.PolynomialRidge` fitted on
    every row, and the first of equally scored degrees wins."""
    y_fit = np.log1p(y) if log_target else y
    try:
        scores = polynomial_ridge_cv(
            X, y_fit, degrees, alpha=alpha, n_splits=n_splits, seed=seed
        )
    except ValueError as err:
        raise ValueError(f"{target} estimator: {err}") from err
    best = int(np.argmax(scores))
    return RegressionEstimator(
        model=PolynomialRidge(degrees[best], alpha).fit(X, y_fit),
        degree=degrees[best],
        cv_r2=float(scores[best]),
        target=target,
        log_target=log_target,
    )


def train_estimators(dataset: EstimatorDataset, *, seed: int = 0) -> TrainedEstimators:
    """Train both estimators with K-fold model selection (paper procedure)."""
    if len(dataset) < 50:
        raise ValueError("dataset too small to train reliable estimators")
    return TrainedEstimators(
        fidelity=_select_and_fit(dataset.X_fidelity, dataset.y_fidelity, "fidelity", seed=seed),
        runtime=_select_and_fit(
            dataset.X_runtime, dataset.y_runtime, "runtime", log_target=True, seed=seed
        ),
    )
