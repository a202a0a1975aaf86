"""QAOA max-cut circuits.

The 20-qubit QAOA max-cut instance drives the paper's resource-plan Pareto
study (Fig. 7a), and QAOA is one of the headline quantum-library algorithms
of the Qonductor programming model (§5).
"""

from __future__ import annotations

import numpy as np

from ..circuits.circuit import Circuit, SinkT

__all__ = ["qaoa_maxcut", "qaoa_ring_maxcut", "random_maxcut_graph"]


def random_maxcut_graph(
    num_nodes: int, edge_prob: float = 0.5, rng: np.random.Generator | None = None
) -> list[tuple[int, int]]:
    """Erdős–Rényi graph edge list for max-cut instances."""
    rng = rng or np.random.default_rng(0)
    edges = [
        (i, j)
        for i in range(num_nodes)
        for j in range(i + 1, num_nodes)
        if rng.random() < edge_prob
    ]
    if not edges:  # guarantee a connected-ish instance
        edges = [(i, i + 1) for i in range(num_nodes - 1)]
    return edges


def qaoa_maxcut(
    num_qubits: int,
    p_layers: int = 1,
    *,
    edges: list[tuple[int, int]] | None = None,
    seed: int = 0,
    sink: type[SinkT] = Circuit,  # type: ignore[assignment]
) -> SinkT:
    """QAOA ansatz for max-cut: |+>^n then alternating cost/mixer layers,
    written into ``sink``.  The angles are drawn from ``seed``: one gamma
    in [0.1, pi) and one beta in [0.1, pi/2) per layer."""
    if num_qubits < 2:
        raise ValueError("QAOA needs >= 2 qubits")
    rng = np.random.default_rng(seed)
    if edges is None:
        edges = random_maxcut_graph(num_qubits, 3.0 / max(3, num_qubits), rng)
    gammas = list(rng.uniform(0.1, np.pi, p_layers))
    betas = list(rng.uniform(0.1, np.pi / 2, p_layers))
    circ = sink(num_qubits, f"qaoa_{num_qubits}_p{p_layers}")
    circ.metadata["edges"] = list(edges)
    for q in range(num_qubits):
        circ.h(q)
    for layer in range(p_layers):
        for a, b in edges:
            circ.rzz(2.0 * gammas[layer], a, b)
        for q in range(num_qubits):
            circ.rx(2.0 * betas[layer], q)
    circ.measure_all()
    return circ


def qaoa_ring_maxcut(num_qubits: int, *, seed: int = 0) -> Circuit:
    """QAOA on a ring (cycle) max-cut instance.

    Degree-2 interaction graph: routes swap-free along a physical path,
    making it the hardware-friendly QAOA variant used for the resource-plan
    study (Fig. 7a).
    """
    edges = [(i, (i + 1) % num_qubits) for i in range(num_qubits)]
    circ = qaoa_maxcut(num_qubits, edges=edges, seed=seed)
    circ.name = f"qaoa_ring_{num_qubits}_p1"
    return circ
