"""VQE ansatz circuits (RealAmplitudes / TwoLocal style)."""

from __future__ import annotations

import numpy as np

from ..circuits.circuit import Circuit

__all__ = ["real_amplitudes", "two_local"]


def real_amplitudes(
    num_qubits: int,
    reps: int = 2,
    *,
    seed: int = 0,
) -> Circuit:
    """RealAmplitudes ansatz: ry layers, angles drawn from ``seed``,
    interleaved with CX entanglers between neighbours."""
    if num_qubits < 2:
        raise ValueError("ansatz needs >= 2 qubits")
    n_params = num_qubits * (reps + 1)
    circ = Circuit(num_qubits, f"vqe_ra_{num_qubits}_r{reps}")
    it = iter(np.random.default_rng(seed).uniform(-np.pi, np.pi, n_params))
    for _rep in range(reps):
        for q in range(num_qubits):
            circ.ry(next(it), q)
        for q in range(num_qubits - 1):
            circ.cx(q, q + 1)
    for q in range(num_qubits):
        circ.ry(next(it), q)
    circ.measure_all()
    return circ


def two_local(
    num_qubits: int,
    reps: int = 2,
    *,
    seed: int = 0,
) -> Circuit:
    """TwoLocal ansatz: an ry and an rz layer, angles drawn from
    ``seed``, between CZ entanglers over every pair."""
    rng = np.random.default_rng(seed)
    circ = Circuit(num_qubits, f"vqe_tl_{num_qubits}_r{reps}")
    for rep in range(reps + 1):
        for q in range(num_qubits):
            circ.ry(float(rng.uniform(-np.pi, np.pi)), q)
        for q in range(num_qubits):
            circ.rz(float(rng.uniform(-np.pi, np.pi)), q)
        if rep < reps:
            for i in range(num_qubits):
                for j in range(i + 1, num_qubits):
                    circ.cz(i, j)
    circ.measure_all()
    return circ
