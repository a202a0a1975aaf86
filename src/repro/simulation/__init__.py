"""Simulation substrate: ideal statevector, noisy trajectories, readout
errors, distribution metrics, the ASAP schedule every timing reader shares,
and the analytic ESP fidelity model."""

from .distributions import (
    counts_to_probs,
    hellinger_distance,
    hellinger_fidelity,
    marginal_counts,
    normalize_counts,
    probs_to_vector,
    total_variation_distance,
)
from .esp import (
    circuit_duration_ns,
    esp,
    esp_components,
    esp_to_hellinger,
    estimate_fidelity_analytic,
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
    expectation_z,
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
    "expectation_z",
    "ideal_probabilities",
    "sample_counts",
    "simulate_statevector",
    "zero_state",
    "counts_to_probs",
    "hellinger_distance",
    "hellinger_fidelity",
    "marginal_counts",
    "normalize_counts",
    "probs_to_vector",
    "total_variation_distance",
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
    "estimate_fidelity_analytic",
]
