"""Hamiltonian-simulation and amplitude-estimation workloads.

Rounds out the quantum library with two more families the quantum-cloud
literature benchmarks against: first-order Trotterized transverse-field
Ising evolution, and (ancilla-free, maximum-likelihood-style) amplitude
estimation built from Grover powers.
"""

from __future__ import annotations

from ..circuits.circuit import Circuit
from .grover import diffuser, grover_oracle

__all__ = ["tfim_trotter", "amplitude_estimation"]


def tfim_trotter(
    num_qubits: int,
    steps: int = 2,
) -> Circuit:
    """First-order Trotter circuit for the 1-D transverse-field Ising model.

    ``H = -J sum Z_i Z_{i+1} - h sum X_i`` with ``J = h = 1``, evolved for
    unit time; each Trotter step applies the ZZ layer (rzz) then the X
    layer (rx). Chain topology: routes swap-free.
    """
    if num_qubits < 2:
        raise ValueError("TFIM needs >= 2 qubits")
    if steps < 1:
        raise ValueError("need >= 1 Trotter step")
    dt = 1.0 / steps
    circ = Circuit(num_qubits, f"tfim_{num_qubits}_s{steps}")
    circ.metadata["hamiltonian"] = {"J": 1.0, "h": 1.0, "time": 1.0, "steps": steps}
    for _ in range(steps):
        for q in range(num_qubits - 1):
            circ.rzz(-2.0 * dt, q, q + 1)
        for q in range(num_qubits):
            circ.rx(-2.0 * dt, q)
    circ.measure_all()
    return circ


def amplitude_estimation(
    num_qubits: int,
    grover_power: int = 1,
) -> Circuit:
    """Amplitude-amplification circuit at one Grover power.

    MLAE-style amplitude estimation executes the state-preparation
    operator followed by ``Q^k`` (oracle + diffuser repeated ``k`` times)
    and post-processes hit rates across several powers classically; this
    generates the quantum piece for one power, marking the all-ones state.
    """
    if num_qubits < 2:
        raise ValueError("amplitude estimation needs >= 2 qubits")
    if grover_power < 0:
        raise ValueError("grover_power must be >= 0")
    marked = "1" * num_qubits
    circ = Circuit(num_qubits, f"ae_{num_qubits}_k{grover_power}")
    circ.metadata["marked"] = marked
    circ.metadata["grover_power"] = grover_power
    for q in range(num_qubits):
        circ.h(q)
    oracle = grover_oracle(num_qubits, marked)
    diff = diffuser(num_qubits)
    for _ in range(grover_power):
        circ.compose(oracle)
        circ.compose(diff)
    circ.measure_all()
    return circ
