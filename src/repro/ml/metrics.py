"""Regression metrics: R^2, the paper's model-selection criterion."""

from __future__ import annotations

import numpy as np

__all__ = ["r2_score"]


def r2_score(y_true, y_pred) -> float:
    """Coefficient of determination; 1 = perfect, 0 = mean predictor."""
    yt = np.asarray(y_true, dtype=float)
    yp = np.asarray(y_pred, dtype=float)
    if yt.shape != yp.shape:
        raise ValueError(f"shape mismatch {yt.shape} vs {yp.shape}")
    if yt.size == 0:
        raise ValueError("empty input")
    ss_res = float(np.sum((yt - yp) ** 2))
    ss_tot = float(np.sum((yt - yt.mean()) ** 2))
    if ss_tot <= 1e-300:
        return 1.0 if ss_res <= 1e-300 else 0.0
    return 1.0 - ss_res / ss_tot
