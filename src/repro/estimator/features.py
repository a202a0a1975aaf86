"""Feature engineering for the fidelity/runtime regression models (§6).

The paper's features: error-mitigation type, circuit width, shots, depth,
two-qubit count — plus, for fidelity, the target QPU's topology/error rates.
We encode exactly those from a job's :class:`CircuitMetrics`, its mitigation
preset, and the target calibration snapshot.

Feature vectors split into a job part (circuit + shots + mitigation) and a
calibration part, so ``TrainedEstimators.estimate_pairs`` builds each job
row once per block and gathers the per-snapshot calibration rows next to it.
"""

from __future__ import annotations

import math

import numpy as np

from ..backends.calibration import CalibrationData
from ..circuits.metrics import CircuitMetrics
from ..mitigation.stack import STANDARD_STACKS

__all__ = [
    "FIDELITY_FEATURE_NAMES",
    "RUNTIME_FEATURE_NAMES",
    "fidelity_features",
    "runtime_features",
    "job_fidelity_features",
    "job_runtime_features",
    "calibration_fidelity_features",
    "calibration_runtime_features",
    "mitigation_flags",
]

_TECHNIQUES = ("dd", "twirling", "zne", "rem")

FIDELITY_FEATURE_NAMES: tuple[str, ...] = (
    "num_qubits",
    "depth",
    "num_2q_gates",
    "num_1q_gates",
    "two_qubit_depth",
    "interaction_degree",
    "log_shots",
    "mit_dd",
    "mit_twirling",
    "mit_zne",
    "mit_rem",
    "qpu_error_2q",
    "qpu_error_1q",
    "qpu_readout_error",
    "qpu_inv_t1",
    "qpu_inv_t2",
)

RUNTIME_FEATURE_NAMES: tuple[str, ...] = (
    "num_qubits",
    "depth",
    "num_2q_gates",
    "two_qubit_depth",
    "interaction_degree",
    "shots_k",
    "mit_dd",
    "mit_twirling",
    "mit_zne",
    "mit_rem",
    "qpu_duration_2q_ns",
)


def mitigation_flags(mitigation: str) -> list[float]:
    """Binary indicators for each technique in the preset."""
    techniques = STANDARD_STACKS.get(mitigation)
    if techniques is None:
        raise KeyError(f"unknown mitigation preset {mitigation!r}")
    return [1.0 if t in techniques else 0.0 for t in _TECHNIQUES]


# ----------------------------------------------------------------------
# Job parts (calibration-independent).

def job_fidelity_features(
    metrics: CircuitMetrics, shots: int, mitigation: str
) -> np.ndarray:
    """Circuit/shots/mitigation columns of the fidelity feature vector."""
    return np.array(
        [
            float(metrics.num_qubits),
            float(metrics.depth),
            float(metrics.num_2q_gates),
            float(metrics.num_1q_gates),
            float(metrics.two_qubit_depth),
            float(min(metrics.max_interaction_degree, 8)),
            math.log10(max(1, shots)),
            *mitigation_flags(mitigation),
        ]
    )


def job_runtime_features(
    metrics: CircuitMetrics, shots: int, mitigation: str
) -> np.ndarray:
    """Circuit/shots/mitigation columns of the runtime feature vector."""
    return np.array(
        [
            float(metrics.num_qubits),
            float(metrics.depth),
            float(metrics.num_2q_gates),
            float(metrics.two_qubit_depth),
            float(min(metrics.max_interaction_degree, 8)),
            shots / 1000.0,
            *mitigation_flags(mitigation),
        ]
    )


# ----------------------------------------------------------------------
# Calibration parts.

def _calibration_rows(calibration: CalibrationData) -> tuple[np.ndarray, np.ndarray]:
    """Both calibration rows, built once per snapshot (hence read-only)."""
    rows = calibration.derived.get("feature_rows")
    if rows is None:
        agg = calibration.aggregates()
        quality = np.array(
            [
                agg.error_2q * 100.0,
                agg.error_1q * 1000.0,
                agg.readout_error * 100.0,
                100.0 / agg.t1_us,
                100.0 / agg.t2_us,
            ]
        )
        rows = calibration.derived["feature_rows"] = (quality, np.array([agg.duration_2q_ns]))
        for row in rows:
            row.flags.writeable = False
    return rows


def calibration_fidelity_features(calibration: CalibrationData) -> np.ndarray:
    """QPU-quality columns of the fidelity feature vector."""
    return _calibration_rows(calibration)[0]


def calibration_runtime_features(calibration: CalibrationData) -> np.ndarray:
    """QPU-speed columns of the runtime feature vector."""
    return _calibration_rows(calibration)[1]


# ----------------------------------------------------------------------
# Full vectors.

def fidelity_features(
    metrics: CircuitMetrics,
    shots: int,
    mitigation: str,
    calibration: CalibrationData,
) -> np.ndarray:
    """Feature vector for the fidelity model."""
    return np.concatenate(
        [
            job_fidelity_features(metrics, shots, mitigation),
            calibration_fidelity_features(calibration),
        ]
    )


def runtime_features(
    metrics: CircuitMetrics,
    shots: int,
    mitigation: str,
    calibration: CalibrationData,
) -> np.ndarray:
    """Feature vector for the quantum-execution-time model."""
    return np.concatenate(
        [
            job_runtime_features(metrics, shots, mitigation),
            calibration_runtime_features(calibration),
        ]
    )
