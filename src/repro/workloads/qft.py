"""Quantum Fourier Transform circuits."""

from __future__ import annotations

import math

from ..circuits.circuit import Circuit

__all__ = ["qft", "qft_entangled"]


def qft(num_qubits: int, *, swaps: bool = True, measure: bool = False) -> Circuit:
    """Textbook QFT: H + controlled-phase ladder (+ reversing swaps)."""
    if num_qubits < 1:
        raise ValueError("QFT needs >= 1 qubit")
    circ = Circuit(num_qubits, f"qft_{num_qubits}")
    # Qubit 0 is the least-significant bit of the transformed index; with
    # the final swaps the unitary matches the textbook DFT matrix exactly.
    for i in reversed(range(num_qubits)):
        circ.h(i)
        for j in reversed(range(i)):
            k = i - j + 1
            circ.cp(2.0 * math.pi / (2**k), j, i)
    if swaps:
        for i in range(num_qubits // 2):
            circ.swap(i, num_qubits - 1 - i)
    if measure:
        circ.measure_all()
    return circ


def qft_entangled(num_qubits: int) -> Circuit:
    """QFT applied to a GHZ input — MQT Bench's 'qftentangled' workload."""
    circ = Circuit(num_qubits, f"qft_entangled_{num_qubits}")
    circ.h(0)
    for q in range(num_qubits - 1):
        circ.cx(q, q + 1)
    circ.compose(qft(num_qubits, swaps=True))
    circ.measure_all()
    return circ
