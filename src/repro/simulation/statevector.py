"""Vectorized statevector simulator.

Gate application reshapes the 2**n amplitude vector into a tensor and
contracts the gate matrix over the target axes — no Python loop over
amplitudes, per the HPC guides. Practical up to ~20 qubits.

The contraction is written batched: :func:`apply_matrix_batched` evolves a
whole ``(batch, 2**n)`` stack of states with a single tensordot per gate
(the trajectory simulator stacks all its trajectories this way, and
:func:`apply_gate_to_matrix` treats the columns of a unitary as the
batch).  The single-state :func:`apply_matrix` is a thin view over the
batched path.

Qubit convention: qubit 0 is the *least significant* bit of the basis-state
index (little-endian), matching how counts are reported as bitstrings with
qubit 0 rightmost.
"""

from __future__ import annotations

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.gates import Gate

__all__ = [
    "zero_state",
    "apply_gate",
    "apply_matrix",
    "apply_matrix_batched",
    "apply_gate_to_matrix",
    "simulate_statevector",
    "ideal_probabilities",
    "sample_counts",
]

MAX_STATEVECTOR_QUBITS = 22


def zero_state(num_qubits: int) -> np.ndarray:
    """|0...0> statevector of ``num_qubits`` qubits."""
    if num_qubits > MAX_STATEVECTOR_QUBITS:
        raise ValueError(
            f"statevector simulation limited to {MAX_STATEVECTOR_QUBITS} qubits, "
            f"got {num_qubits}"
        )
    state = np.zeros(2**num_qubits, dtype=complex)
    state[0] = 1.0
    return state


def apply_matrix_batched(
    states,
    matrix,
    qubits: tuple[int, ...],
    num_qubits: int,
):
    """Apply a k-qubit ``matrix`` to ``qubits`` of a ``(batch, 2**n)`` stack.

    Each stacked state is viewed as a rank-n tensor with axis ``i``
    corresponding to qubit ``n-1-i`` (C-order: qubit 0 varies fastest);
    the batch is a leading axis.  One ``tensordot`` contracts the gate
    over the target axes of every state at once, followed by an axis
    move — the batched generalization of the single-state contraction,
    bit-identical per row to applying the gate state by state.
    """
    batch = states.shape[0]
    k = len(qubits)
    tensor = states.reshape((batch,) + (2,) * num_qubits)
    # Axis of qubit q in the batch-leading C-ordered tensor:
    axes = [1 + num_qubits - 1 - q for q in qubits]
    gate_tensor = np.asarray(matrix).reshape((2,) * (2 * k))
    # tensordot contracts the *last* k axes of gate_tensor (the input
    # indices) with the target axes of the state tensor.
    moved = np.tensordot(gate_tensor, tensor, axes=(list(range(k, 2 * k)), axes))
    # Output axes of the gate land first, in qubit order; move them back
    # (the batch axis and untouched qubit axes keep their relative order,
    # so the same positions identify the targets afterwards).
    moved = np.moveaxis(moved, range(k), axes)
    return np.ascontiguousarray(moved).reshape(batch, -1)


def apply_matrix(
    state: np.ndarray, matrix: np.ndarray, qubits: tuple[int, ...], num_qubits: int
) -> np.ndarray:
    """Apply a k-qubit unitary ``matrix`` to ``qubits`` of one statevector.

    Thin view over :func:`apply_matrix_batched` with a batch of one.
    """
    return apply_matrix_batched(state.reshape(1, -1), matrix, qubits, num_qubits)[0]


def apply_gate(state: np.ndarray, gate: Gate, num_qubits: int) -> np.ndarray:
    """Apply a single unitary :class:`Gate` to a statevector."""
    return apply_matrix(state, gate.matrix(), gate.qubits, num_qubits)


def apply_gate_to_matrix(mat: np.ndarray, gate: Gate, num_qubits: int) -> np.ndarray:
    """Left-multiply a full 2**n x 2**n matrix by a gate.

    The columns are a batch of statevectors, so one batched contraction
    replaces the former per-column Python loop.
    """
    cols = np.ascontiguousarray(mat.T)
    out = apply_matrix_batched(cols, gate.matrix(), gate.qubits, num_qubits)
    return np.ascontiguousarray(out.T)


def simulate_statevector(circuit: Circuit) -> np.ndarray:
    """Run the unitary part of ``circuit`` on |0...0>; returns the state."""
    state = zero_state(circuit.num_qubits)
    for gate in circuit.ops:
        if gate.is_unitary:
            state = apply_gate(state, gate, circuit.num_qubits)
        elif gate.name == "reset":
            state = _project_reset(state, gate.qubits[0], circuit.num_qubits)
        elif gate.name == "project":
            proj = _PROJECTORS[int(gate.params[0])]
            state = apply_matrix(state, proj, gate.qubits, circuit.num_qubits)
        # measure/barrier/delay are no-ops for pure-state evolution here
    return state


_PROJECTORS = (
    np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
    np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex),
)


def _project_reset(state: np.ndarray, qubit: int, num_qubits: int) -> np.ndarray:
    """Non-unitary reset: project qubit to |0> (renormalized), flip if needed."""
    tensor = state.reshape((2,) * num_qubits)
    axis = num_qubits - 1 - qubit
    zero = np.take(tensor, 0, axis=axis)
    one = np.take(tensor, 1, axis=axis)
    p0 = float(np.sum(np.abs(zero) ** 2))
    p1 = float(np.sum(np.abs(one) ** 2))
    new = np.zeros_like(tensor)
    idx = [slice(None)] * num_qubits
    idx[axis] = 0
    if p0 >= p1:
        branch, norm = zero, np.sqrt(p0) if p0 > 0 else 1.0
    else:
        branch, norm = one, np.sqrt(p1)
    new[tuple(idx)] = branch / norm
    return new.reshape(-1)


def ideal_probabilities(circuit: Circuit) -> np.ndarray:
    """Measurement probabilities of the noiseless circuit over all qubits."""
    state = simulate_statevector(circuit.without_measurements())
    return np.abs(state) ** 2


def sample_counts(
    probabilities: np.ndarray,
    shots: int,
    rng: np.random.Generator,
    num_qubits: int | None = None,
) -> dict[str, int]:
    """Draw ``shots`` samples from a probability vector into a counts dict.

    The draw is one vectorized ``rng.multinomial``; only the observed
    outcomes are materialized as dict entries.  Keys are
    bitstrings with qubit 0 rightmost (little-endian display).
    """
    n = int(np.log2(len(probabilities))) if num_qubits is None else num_qubits
    probs = np.clip(probabilities, 0.0, None)
    total = probs.sum()
    if total <= 0:
        raise ValueError("probability vector sums to zero")
    probs = probs / total
    draws = rng.multinomial(shots, probs)
    observed = np.nonzero(draws)[0]
    return {format(idx, f"0{n}b"): int(draws[idx]) for idx in observed}
