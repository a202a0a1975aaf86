"""Unitary folding for ZNE noise amplification.

Folding maps ``G -> G G^dag G`` so the circuit computes the same unitary
while passing through the noise channel more times. Global folding scales
the whole circuit; gate folding scales individual gates, allowing
non-integer scale factors via partial folds (Mitiq's scheme).
"""

from __future__ import annotations

from ..circuits.circuit import Circuit
from ..circuits.gates import inverse_gate

__all__ = ["fold_global", "fold_gates", "fold_to_factor"]


def fold_global(circuit: Circuit, num_folds: int) -> Circuit:
    """Apply ``num_folds`` global folds: U -> U (U^dag U)^k, scale 2k+1.

    Measurements stay at the end; only the unitary body is folded.
    """
    if num_folds < 0:
        raise ValueError("num_folds must be >= 0")
    body = circuit.without_measurements()
    out = Circuit(circuit.num_qubits, f"{circuit.name}_fold{2 * num_folds + 1}")
    out.metadata = dict(circuit.metadata)
    out.compose(body)
    inv = body.inverse()
    for _ in range(num_folds):
        out.compose(inv)
        out.compose(body)
    for g in circuit.ops:
        if not g.is_unitary:
            out.append(g)
    return out


def fold_gates(
    circuit: Circuit,
    gate_indices: list[int],
) -> Circuit:
    """Fold the unitary gates at ``gate_indices`` (indices into ``ops``)."""
    chosen = set(gate_indices)
    out = Circuit(circuit.num_qubits, f"{circuit.name}_gfold")
    out.metadata = dict(circuit.metadata)
    for idx, g in enumerate(circuit.ops):
        out.append(g)
        if idx in chosen:
            if not g.is_unitary:
                raise ValueError(f"cannot fold non-unitary op at {idx}")
            out.append(inverse_gate(g))
            out.append(g)
    return out


def fold_to_factor(circuit: Circuit, scale_factor: float) -> Circuit:
    """Fold to an arbitrary ``scale_factor >= 1``.

    Integer part comes from global folds; the fractional remainder folds
    the leading share of gates, two-qubit gates first — they dominate the
    error budget, so this tracks the effective noise scale best.
    """
    if scale_factor < 1.0:
        raise ValueError(f"scale_factor must be >= 1, got {scale_factor}")
    num_global = int((scale_factor - 1.0) // 2.0)
    folded = fold_global(circuit, num_global)
    achieved = 2 * num_global + 1
    remainder = scale_factor - achieved  # in [0, 2)
    if remainder <= 1e-9:
        return folded
    unitary_idx = [i for i, g in enumerate(folded.ops) if g.is_unitary]
    if not unitary_idx:
        return folded
    # Each partial fold adds 2 gates; fraction of gates to fold:
    frac = min(1.0, remainder / 2.0)
    two_q = [i for i in unitary_idx if folded.ops[i].num_qubits == 2]
    one_q = [i for i in unitary_idx if folded.ops[i].num_qubits == 1]
    k = max(1, int(round(frac * len(unitary_idx))))
    out = fold_gates(folded, (two_q + one_q)[:k])
    out.name = f"{circuit.name}_fold{scale_factor:g}"
    return out
