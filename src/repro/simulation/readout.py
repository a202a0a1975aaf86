"""Readout (measurement assignment) noise.

Applies per-qubit confusion matrices to outcome distributions. The forward
direction models SPAM errors during simulation; the inverse direction is the
REM mitigation technique (see :mod:`repro.mitigation.rem`).

The full confusion matrix over n qubits is a tensor product of 2x2 per-qubit
matrices; it is never materialized — both directions are applied
qubit-by-qubit on the reshaped probability tensor, which is O(n 2^n)
instead of O(4^n).
"""

from __future__ import annotations

import numpy as np

from .noise import NoiseModel

__all__ = [
    "apply_readout_noise_probs",
    "apply_confusion_single",
]


def apply_confusion_single(
    probs: np.ndarray, confusion: np.ndarray, qubit: int, num_qubits: int
) -> np.ndarray:
    """Apply one qubit's 2x2 confusion matrix to a dense distribution."""
    tensor = probs.reshape((2,) * num_qubits)
    axis = num_qubits - 1 - qubit
    moved = np.moveaxis(tensor, axis, 0)
    mixed = np.tensordot(confusion, moved, axes=(1, 0))
    return np.moveaxis(mixed, 0, axis).reshape(-1)


def apply_readout_noise_probs(
    probs: np.ndarray, noise_model: NoiseModel, num_qubits: int
) -> np.ndarray:
    """Forward-apply every qubit's confusion matrix to ``probs``."""
    out = probs
    for q in range(num_qubits):
        conf = noise_model.confusion_matrix(q)
        if abs(conf[0, 0] - 1.0) < 1e-15 and abs(conf[1, 1] - 1.0) < 1e-15:
            continue
        out = apply_confusion_single(out, conf, q, num_qubits)
    return out
