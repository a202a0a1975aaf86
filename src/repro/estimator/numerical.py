"""Numerical estimation baseline (Fig. 7's comparison).

The state-of-the-art approach the paper compares against [62, 95, 101]:
traverse the circuit against the QPU's calibration data, multiplying gate
success probabilities (fidelity) or summing gate durations (runtime).
Crucially, it is blind to error mitigation — it neither credits the
fidelity improvement nor charges the extra shots — which is exactly why
the regression estimator beats it on mitigated jobs.
"""

from __future__ import annotations

import math

from ..backends.calibration import CalibrationData
from ..backends.models import QPUModel
from ..circuits.metrics import CircuitMetrics
from ..cloud.execution import SHOT_OVERHEAD_US, QPU_SETUP_SECONDS
from ..cloud.proxy import TranspileProxy
from ..simulation.esp import esp_to_hellinger

__all__ = ["NumericalEstimator"]


class NumericalEstimator:
    """Calibration-product fidelity and duration-sum runtime estimates."""

    def __init__(self, proxy: TranspileProxy | None = None) -> None:
        self.proxy = proxy or TranspileProxy()

    def estimate_fidelity(
        self,
        metrics: CircuitMetrics,
        shots: int,
        mitigation: str,  # accepted for interface parity; deliberately unused
        calibration: CalibrationData,
        model: QPUModel,
    ) -> float:
        nm = calibration.noise_model
        phys_2q, phys_1q, duration_ns = self.proxy.physical_metrics(metrics, model)
        log_s = phys_2q * math.log1p(-min(nm.mean_gate_error_2q(), 0.5))
        log_s += phys_1q * math.log1p(-min(nm.mean_gate_error_1q(), 0.5))
        log_s += metrics.num_measurements * math.log1p(
            -min(nm.mean_readout_error(), 0.5)
        )
        # Decoherence over the estimated schedule (same form as prior work's
        # DAG traversal with T1/T2 factors).
        import numpy as np

        t1 = float(np.mean([q.t1_us for q in nm.qubits]))
        t2 = float(np.mean([q.t2_us for q in nm.qubits]))
        inv_tphi = max(0.0, 1.0 / t2 - 0.5 / t1)
        log_s += -(duration_ns / 1000.0) * metrics.num_qubits * 0.25 * (
            1.0 / t1 + inv_tphi
        )
        return esp_to_hellinger(math.exp(log_s), metrics.num_qubits)

    def estimate_runtime(
        self,
        metrics: CircuitMetrics,
        shots: int,
        mitigation: str,  # unused: the numerical method ignores mitigation
        calibration: CalibrationData,
        model: QPUModel,
    ) -> float:
        """Seconds of QPU time: shots x (circuit duration + readout gap)."""
        _, _, duration_ns = self.proxy.physical_metrics(metrics, model)
        per_shot_s = duration_ns / 1e9 + SHOT_OVERHEAD_US / 1e6
        return QPU_SETUP_SECONDS + shots * per_shot_s
