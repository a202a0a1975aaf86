"""Random circuit generators: generic layered circuits and the clustered
two-block circuits used for the circuit-cutting study (Fig. 2a)."""

from __future__ import annotations

import numpy as np

from ..circuits.circuit import Circuit, SinkT

__all__ = ["random_circuit", "clustered_circuit"]

_ONE_Q = ("h", "x", "sx", "rz", "rx", "ry", "t", "s")
_TWO_Q = ("cx", "cz", "rzz")


def random_circuit(
    num_qubits: int,
    depth: int,
    *,
    two_qubit_prob: float = 0.5,
    measure: bool = True,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
    sink: type[SinkT] = Circuit,  # type: ignore[assignment]
) -> SinkT:
    """Layered random circuit: each layer pairs up free qubits with
    probability ``two_qubit_prob`` and fills the rest with random 1q gates,
    written into ``sink``."""
    if num_qubits < 1 or depth < 1:
        raise ValueError("need num_qubits >= 1 and depth >= 1")
    rng = rng or np.random.default_rng(seed)
    circ = sink(num_qubits, f"random_{num_qubits}x{depth}")
    for _ in range(depth):
        free = list(rng.permutation(num_qubits))
        while free:
            q = int(free.pop())
            if free and rng.random() < two_qubit_prob:
                partner = int(free.pop())
                name = _TWO_Q[int(rng.integers(len(_TWO_Q)))]
                if name == "rzz":
                    circ.rzz(float(rng.uniform(0, 2 * np.pi)), q, partner)
                else:
                    circ.add(name, [q, partner])
            else:
                name = _ONE_Q[int(rng.integers(len(_ONE_Q)))]
                if name in ("rz", "rx", "ry"):
                    circ.add(name, [q], float(rng.uniform(0, 2 * np.pi)))
                else:
                    circ.add(name, [q])
    if measure:
        circ.measure_all()
    return circ


def clustered_circuit(
    num_qubits: int,
    depth: int,
    *,
    num_clusters: int = 2,
    bridge_gates: int = 1,
    measure: bool = True,
    seed: int | None = None,
) -> Circuit:
    """Random circuit with dense intra-cluster and sparse inter-cluster
    entanglement — the structure circuit cutting exploits.

    ``bridge_gates`` cross-cluster CZ gates connect adjacent clusters; a
    wire/gate cut across those bridges splits the circuit into fragments
    of roughly ``num_qubits / num_clusters`` qubits each (Fig. 2a's setup
    cuts 12- and 24-qubit circuits in half).
    """
    if num_clusters < 2 or num_qubits < 2 * num_clusters:
        raise ValueError("need >= 2 clusters with >= 2 qubits each")
    rng = np.random.default_rng(seed)
    bounds = np.linspace(0, num_qubits, num_clusters + 1).astype(int)
    clusters = [list(range(bounds[i], bounds[i + 1])) for i in range(num_clusters)]
    circ = Circuit(num_qubits, f"clustered_{num_qubits}x{depth}")
    circ.metadata["clusters"] = [list(c) for c in clusters]
    bridges: list[tuple[int, int]] = []
    for _layer in range(depth):
        for cluster in clusters:
            free = list(rng.permutation(cluster))
            while free:
                q = int(free.pop())
                if free and rng.random() < 0.6:
                    partner = int(free.pop())
                    circ.cx(q, partner)
                else:
                    name = _ONE_Q[int(rng.integers(len(_ONE_Q)))]
                    if name in ("rz", "rx", "ry"):
                        circ.add(name, [q], float(rng.uniform(0, 2 * np.pi)))
                    else:
                        circ.add(name, [q])
    # Sparse bridges between adjacent clusters, placed mid-circuit.
    for i in range(num_clusters - 1):
        for _ in range(bridge_gates):
            a = int(rng.choice(clusters[i]))
            b = int(rng.choice(clusters[i + 1]))
            circ.cz(a, b)
            bridges.append((a, b))
    circ.metadata["bridges"] = bridges
    if measure:
        circ.measure_all()
    return circ
