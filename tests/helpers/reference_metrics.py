"""The six-walk ``compute_metrics`` the fused pass replaced, kept verbatim.

``src/`` runs :func:`repro.circuits.metrics.compute_metrics` — one pass
over ``circuit.ops``; this is the form it must equal field for field: a
1q count, a 2q count, ``Circuit.depth()``, ``Circuit.depth(
two_qubit_only=True)``, the interaction-degree walk and the measurement
count, each its own walk over the op list.
``benchmarks/conftest.py``'s ``eager_workload_patch`` rebuilds the
pre-recipe load-generator path from it.
"""

from __future__ import annotations

from repro.circuits.circuit import Circuit
from repro.circuits.metrics import CircuitMetrics

__all__ = ["compute_metrics_reference"]


def compute_metrics_reference(circuit: Circuit) -> CircuitMetrics:
    """Compute the standard metric bundle for ``circuit``."""
    n_1q = sum(1 for g in circuit.ops if g.is_unitary and g.num_qubits == 1)
    n_2q = sum(1 for g in circuit.ops if g.is_unitary and g.num_qubits == 2)
    depth = circuit.depth()
    size = n_1q + n_2q
    if depth > 0:
        parallelism = size / depth
    else:
        parallelism = 0.0
    degree: dict[int, int] = {}
    seen_edges: set[tuple[int, int]] = set()
    for g in circuit.ops:
        if g.is_unitary and g.num_qubits == 2:
            e = (min(g.qubits), max(g.qubits))
            if e in seen_edges:
                continue
            seen_edges.add(e)
            degree[e[0]] = degree.get(e[0], 0) + 1
            degree[e[1]] = degree.get(e[1], 0) + 1
    return CircuitMetrics(
        num_qubits=circuit.num_qubits,
        depth=depth,
        two_qubit_depth=circuit.depth(two_qubit_only=True),
        size=size,
        num_1q_gates=n_1q,
        num_2q_gates=n_2q,
        num_measurements=circuit.num_measurements,
        parallelism=parallelism,
        max_interaction_degree=max(degree.values(), default=0),
    )
