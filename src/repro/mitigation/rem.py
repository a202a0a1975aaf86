"""Readout error mitigation (REM).

Inverts the measurement confusion matrix. Two modes:

* ``tensored`` (default) — per-qubit 2x2 inverses applied axis-by-axis,
  O(n 2^n), valid for uncorrelated readout noise (which is how our
  simulator generates it).
* ``full`` — dense pseudo-inverse over measured qubits (<= 12), matching
  the correlated-matrix method.

Both project the result back onto the probability simplex via clipping +
renormalization; ``least_squares`` instead solves a constrained problem
with scipy for the highest-accuracy (and priciest) mode.
"""

from __future__ import annotations

import numpy as np

from ..simulation.noise import NoiseModel
from ..simulation.readout import apply_confusion_single, full_confusion_matrix

__all__ = ["REM", "mitigate_probs", "mitigate_counts"]


class REM:
    """Readout-error mitigator bound to a noise model's confusion data."""

    def __init__(self, noise_model: NoiseModel, method: str = "tensored") -> None:
        if method not in ("tensored", "full", "least_squares"):
            raise ValueError(f"unknown REM method {method!r}")
        self.noise_model = noise_model
        self.method = method

    def mitigate_probs(self, probs: np.ndarray, num_qubits: int) -> np.ndarray:
        return mitigate_probs(probs, self.noise_model, num_qubits, self.method)

    def mitigate_counts(self, counts: dict[str, int], num_qubits: int) -> np.ndarray:
        return mitigate_counts(counts, self.noise_model, num_qubits, self.method)

    @property
    def sampling_overhead(self) -> float:
        """REM reuses the same shots; overhead is classical only."""
        return 1.0


def _simplex_project(vec: np.ndarray) -> np.ndarray:
    out = np.clip(vec, 0.0, None)
    total = out.sum()
    if total <= 0:
        return np.full_like(vec, 1.0 / len(vec))
    return out / total


def mitigate_probs(
    probs: np.ndarray,
    noise_model: NoiseModel,
    num_qubits: int,
    method: str = "tensored",
) -> np.ndarray:
    """Undo readout noise on a dense distribution."""
    if method == "tensored":
        out = np.asarray(probs, dtype=float)
        for q in range(num_qubits):
            conf = noise_model.confusion_matrix(q)
            inv = np.linalg.inv(conf)
            out = apply_confusion_single(out, inv, q, num_qubits)
        return _simplex_project(out)
    qubits = list(range(num_qubits))
    mat = full_confusion_matrix(noise_model, qubits)
    if method == "full":
        out = np.linalg.pinv(mat) @ np.asarray(probs, dtype=float)
        return _simplex_project(out)
    # least_squares: min ||M x - p|| s.t. x >= 0, then renormalize.
    from scipy.optimize import nnls  # on use: see ExpFactory.extrapolate

    sol, _ = nnls(mat, np.asarray(probs, dtype=float))
    return _simplex_project(sol)


def mitigate_counts(
    counts: dict[str, int],
    noise_model: NoiseModel,
    num_qubits: int,
    method: str = "tensored",
) -> np.ndarray:
    """Counts-dict entry point; returns a mitigated dense distribution."""
    total = sum(counts.values())
    vec = np.zeros(2**num_qubits)
    for bits, c in counts.items():
        vec[int(bits, 2)] = c / total
    return mitigate_probs(vec, noise_model, num_qubits, method)
