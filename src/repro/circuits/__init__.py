"""Quantum circuit intermediate representation.

The circuit substrate the rest of the reproduction builds on: gates with
unitary semantics, an ordered-op circuit container, and structural
metrics.
"""

from .circuit import Circuit
from .gates import (
    GATE_SPECS,
    HARDWARE_BASIS,
    PSEUDO_OPS,
    Gate,
    GateSpec,
    gate_matrix,
    inverse_gate,
    is_parametric,
    is_two_qubit,
)
from .metrics import CircuitMetrics, MetricsWriter, compute_metrics

__all__ = [
    "GATE_SPECS",
    "HARDWARE_BASIS",
    "PSEUDO_OPS",
    "Gate",
    "GateSpec",
    "gate_matrix",
    "inverse_gate",
    "is_parametric",
    "is_two_qubit",
    "Circuit",
    "CircuitMetrics",
    "MetricsWriter",
    "compute_metrics",
]
