"""VQE ansatz circuits (RealAmplitudes / TwoLocal style)."""

from __future__ import annotations

import numpy as np

from ..circuits.circuit import Circuit

__all__ = ["real_amplitudes", "two_local"]


def real_amplitudes(
    num_qubits: int,
    reps: int = 2,
    *,
    parameters: list[float] | None = None,
    entanglement: str = "linear",
    measure: bool = True,
    seed: int = 0,
) -> Circuit:
    """RealAmplitudes ansatz: ry layers interleaved with CX entanglers."""
    if num_qubits < 2:
        raise ValueError("ansatz needs >= 2 qubits")
    n_params = num_qubits * (reps + 1)
    if parameters is None:
        parameters = list(np.random.default_rng(seed).uniform(-np.pi, np.pi, n_params))
    if len(parameters) != n_params:
        raise ValueError(f"expected {n_params} parameters, got {len(parameters)}")
    circ = Circuit(num_qubits, f"vqe_ra_{num_qubits}_r{reps}")
    it = iter(parameters)
    for _rep in range(reps):
        for q in range(num_qubits):
            circ.ry(next(it), q)
        for a, b in _entangler_pairs(num_qubits, entanglement):
            circ.cx(a, b)
    for q in range(num_qubits):
        circ.ry(next(it), q)
    if measure:
        circ.measure_all()
    return circ


def two_local(
    num_qubits: int,
    reps: int = 2,
    *,
    rotation_gates: tuple[str, ...] = ("ry", "rz"),
    entangler: str = "cz",
    entanglement: str = "full",
    measure: bool = True,
    seed: int = 0,
) -> Circuit:
    """TwoLocal ansatz with configurable rotations and entangler."""
    rng = np.random.default_rng(seed)
    circ = Circuit(num_qubits, f"vqe_tl_{num_qubits}_r{reps}")
    for rep in range(reps + 1):
        for gate in rotation_gates:
            for q in range(num_qubits):
                circ.add(gate, [q], float(rng.uniform(-np.pi, np.pi)))
        if rep < reps:
            for a, b in _entangler_pairs(num_qubits, entanglement):
                circ.add(entangler, [a, b])
    if measure:
        circ.measure_all()
    return circ


def _entangler_pairs(num_qubits: int, entanglement: str) -> list[tuple[int, int]]:
    if entanglement == "linear":
        return [(q, q + 1) for q in range(num_qubits - 1)]
    if entanglement == "circular":
        pairs = [(q, q + 1) for q in range(num_qubits - 1)]
        if num_qubits > 2:
            pairs.append((num_qubits - 1, 0))
        return pairs
    if entanglement == "full":
        return [
            (i, j) for i in range(num_qubits) for j in range(i + 1, num_qubits)
        ]
    raise ValueError(f"unknown entanglement {entanglement!r}")
