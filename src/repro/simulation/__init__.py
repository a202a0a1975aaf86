"""Simulation substrate: ideal statevector, noisy trajectories, readout
errors, distribution metrics, the ASAP schedule every timing reader shares,
and the analytic ESP fidelity model."""

from .distributions import (
    hellinger_fidelity,
    probs_to_vector,
)
from .esp import (
    circuit_duration_ns,
    esp,
    esp_components,
    esp_to_hellinger,
)
from .noise import GateNoise, NoiseModel, QubitNoise
from .readout import apply_confusion_single, apply_readout_noise_probs
from .schedule import Schedule, ScheduledOp, schedule_circuit
from .statevector import (
    MAX_STATEVECTOR_QUBITS,
    apply_gate,
    apply_gate_to_matrix,
    apply_matrix,
    apply_matrix_batched,
    ideal_probabilities,
    sample_counts,
    simulate_statevector,
    zero_state,
)
from .trajectory import NoisyResult, NoisySimulator

__all__ = [
    "MAX_STATEVECTOR_QUBITS",
    "apply_gate",
    "apply_gate_to_matrix",
    "apply_matrix",
    "apply_matrix_batched",
    "ideal_probabilities",
    "sample_counts",
    "simulate_statevector",
    "zero_state",
    "hellinger_fidelity",
    "probs_to_vector",
    "GateNoise",
    "NoiseModel",
    "QubitNoise",
    "apply_confusion_single",
    "apply_readout_noise_probs",
    "NoisyResult",
    "NoisySimulator",
    "Schedule",
    "ScheduledOp",
    "schedule_circuit",
    "circuit_duration_ns",
    "esp",
    "esp_components",
    "esp_to_hellinger",
]
