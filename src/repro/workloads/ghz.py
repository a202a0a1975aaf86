"""GHZ and W entangled-state preparation circuits.

The 12-qubit GHZ circuit is the probe the paper uses for the spatial
performance-variance study (Fig. 2b).
"""

from __future__ import annotations

import math

from ..circuits.circuit import Circuit

__all__ = ["ghz", "ghz_linear", "w_state"]


def ghz(num_qubits: int) -> Circuit:
    """Star-shaped GHZ: H on qubit 0 then fan-out CNOTs from qubit 0."""
    if num_qubits < 2:
        raise ValueError("GHZ needs >= 2 qubits")
    circ = Circuit(num_qubits, f"ghz_{num_qubits}")
    circ.h(0)
    for q in range(1, num_qubits):
        circ.cx(0, q)
    circ.measure_all()
    return circ


def ghz_linear(num_qubits: int) -> Circuit:
    """Chain GHZ: CNOT ladder, hardware-friendlier on linear couplings."""
    if num_qubits < 2:
        raise ValueError("GHZ needs >= 2 qubits")
    circ = Circuit(num_qubits, f"ghz_linear_{num_qubits}")
    circ.h(0)
    for q in range(num_qubits - 1):
        circ.cx(q, q + 1)
    circ.measure_all()
    return circ


def w_state(num_qubits: int) -> Circuit:
    """W-state preparation via cascaded controlled rotations.

    Uses the standard recursive construction: a chain of F-gates (ry + cz
    sandwich) distributing a single excitation across all qubits.
    """
    if num_qubits < 2:
        raise ValueError("W state needs >= 2 qubits")
    circ = Circuit(num_qubits, f"w_{num_qubits}")
    circ.x(0)
    for k in range(1, num_qubits):
        # F gate: rotate amplitude from qubit k-1 onto qubit k.
        theta = math.acos(math.sqrt(1.0 / (num_qubits - k + 1)))
        circ.ry(-theta, k)
        circ.cz(k - 1, k)
        circ.ry(theta, k)
        circ.cx(k, k - 1)
    circ.measure_all()
    return circ
