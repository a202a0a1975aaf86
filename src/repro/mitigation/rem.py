"""Readout error mitigation (REM).

Inverts the measurement confusion matrix one qubit at a time: each
qubit's 2x2 inverse is applied along its axis, O(n 2^n), which is exact
for uncorrelated readout noise (how our simulator generates it). The
result is projected back onto the probability simplex by clipping and
renormalization.
"""

from __future__ import annotations

import numpy as np

from ..simulation.noise import NoiseModel
from ..simulation.readout import apply_confusion_single

__all__ = ["mitigate_probs"]


def _simplex_project(vec: np.ndarray) -> np.ndarray:
    out = np.clip(vec, 0.0, None)
    total = out.sum()
    if total <= 0:
        return np.full_like(vec, 1.0 / len(vec))
    return out / total


def mitigate_probs(
    probs: np.ndarray, noise_model: NoiseModel, num_qubits: int
) -> np.ndarray:
    """Undo readout noise on a dense distribution."""
    out = np.asarray(probs, dtype=float)
    for q in range(num_qubits):
        inv = np.linalg.inv(noise_model.confusion_matrix(q))
        out = apply_confusion_single(out, inv, q, num_qubits)
    return _simplex_project(out)
