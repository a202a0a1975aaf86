"""Grover search circuits with a phase-oracle for one marked bitstring."""

from __future__ import annotations

import math

from ..circuits.circuit import Circuit

__all__ = ["grover", "grover_oracle", "diffuser", "mcp", "mcx"]


def mcp(circ: Circuit, theta: float, qubits: list[int]) -> None:
    """Multi-controlled phase: phase ``theta`` on the all-ones state.

    Standard ancilla-free recursion (Barenco et al.): gate count grows
    exponentially in the register size, which is acceptable for the
    benchmark widths (<= ~10 qubits) where Grover is simulable anyway.
    """
    if not qubits:
        raise ValueError("mcp needs at least one qubit")
    if len(qubits) == 1:
        circ.p(theta, qubits[0])
        return
    if len(qubits) == 2:
        circ.cp(theta, qubits[0], qubits[1])
        return
    controls, target = qubits[:-1], qubits[-1]
    pivot = controls[-1]
    circ.cp(theta / 2.0, pivot, target)
    mcx(circ, controls[:-1], pivot)
    circ.cp(-theta / 2.0, pivot, target)
    mcx(circ, controls[:-1], pivot)
    mcp(circ, theta / 2.0, controls[:-1] + [target])


def mcx(circ: Circuit, controls: list[int], target: int) -> None:
    """Multi-controlled X built from H-sandwiched :func:`mcp`."""
    if not controls:
        circ.x(target)
        return
    if len(controls) == 1:
        circ.cx(controls[0], target)
        return
    circ.h(target)
    mcp(circ, math.pi, controls + [target])
    circ.h(target)


def _multi_controlled_z(circ: Circuit, qubits: list[int]) -> None:
    """(n-1)-controlled Z: phase pi on the all-ones state."""
    if len(qubits) == 1:
        circ.z(qubits[0])
        return
    if len(qubits) == 2:
        circ.cz(qubits[0], qubits[1])
        return
    mcp(circ, math.pi, qubits)


def grover_oracle(num_qubits: int, marked: str) -> Circuit:
    """Phase oracle flipping the sign of ``|marked>`` (bit 0 rightmost)."""
    if len(marked) != num_qubits:
        raise ValueError("marked bitstring length must equal num_qubits")
    circ = Circuit(num_qubits, f"oracle_{marked}")
    zeros = [q for q in range(num_qubits) if marked[num_qubits - 1 - q] == "0"]
    for q in zeros:
        circ.x(q)
    _multi_controlled_z(circ, list(range(num_qubits)))
    for q in zeros:
        circ.x(q)
    return circ


def diffuser(num_qubits: int) -> Circuit:
    """Grover diffuser: inversion about the mean."""
    circ = Circuit(num_qubits, "diffuser")
    for q in range(num_qubits):
        circ.h(q)
        circ.x(q)
    _multi_controlled_z(circ, list(range(num_qubits)))
    for q in range(num_qubits):
        circ.x(q)
        circ.h(q)
    return circ


def grover(num_qubits: int) -> Circuit:
    """Full Grover search for the all-ones item, at the optimal
    ``round(pi/4 * sqrt(2^n))`` iterations."""
    if num_qubits < 2:
        raise ValueError("Grover needs >= 2 qubits")
    marked = "1" * num_qubits
    iterations = max(1, round(math.pi / 4.0 * math.sqrt(2**num_qubits)))
    circ = Circuit(num_qubits, f"grover_{num_qubits}")
    circ.metadata["marked"] = marked
    for q in range(num_qubits):
        circ.h(q)
    oracle = grover_oracle(num_qubits, marked)
    diff = diffuser(num_qubits)
    for _ in range(iterations):
        circ.compose(oracle)
        circ.compose(diff)
    circ.measure_all()
    return circ
