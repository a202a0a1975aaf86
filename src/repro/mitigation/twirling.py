"""Pauli twirling.

Conjugates every CX by random Pauli pairs chosen so the ideal circuit is
unchanged, converting coherent two-qubit noise into stochastic Pauli noise
(Wallman & Emerson 2016). Generates an ensemble of logically equivalent
circuit instances whose averaged output tailored the noise channel.
"""

from __future__ import annotations

import numpy as np

from ..circuits.circuit import Circuit

__all__ = ["pauli_twirl", "twirl_ensemble", "CX_TWIRL_SET", "TWIRL_INSTANCES"]

#: Twirled instances per circuit in every twirling stack.
TWIRL_INSTANCES = 4

# Pauli pairs (P_c, P_t) with matching correction pairs (Q_c, Q_t) such that
# (Q_c (x) Q_t) . CX . (P_c (x) P_t) = CX exactly (up to global phase).
# CX propagation rules: X_c -> X_c X_t, X_t -> X_t, Z_c -> Z_c,
# Z_t -> Z_c Z_t, Y = iXZ.
CX_TWIRL_SET: list[tuple[str, str, str, str]] = [
    ("id", "id", "id", "id"),
    ("id", "x", "id", "x"),
    ("id", "z", "z", "z"),
    ("id", "y", "z", "y"),
    ("x", "id", "x", "x"),
    ("x", "x", "x", "id"),
    ("x", "z", "y", "y"),
    ("x", "y", "y", "z"),
    ("z", "id", "z", "id"),
    ("z", "x", "z", "x"),
    ("z", "z", "id", "z"),
    ("z", "y", "id", "y"),
    ("y", "id", "y", "x"),
    ("y", "x", "y", "id"),
    ("y", "z", "x", "y"),
    ("y", "y", "x", "z"),
]


def pauli_twirl(
    circuit: Circuit, rng: np.random.Generator | None = None
) -> Circuit:
    """One random twirled instance: every CX dressed with a random
    sandwich from :data:`CX_TWIRL_SET`."""
    # Deterministic by default: callers wanting varied instances inject
    # their own Generator (twirl_ensemble shares one across instances).
    rng = rng if rng is not None else np.random.default_rng(0)
    out = Circuit(circuit.num_qubits, f"{circuit.name}_twirled")
    out.metadata = dict(circuit.metadata)
    for g in circuit.ops:
        if g.name != "cx":
            out.append(g)
            continue
        pc, pt, qc, qt = CX_TWIRL_SET[int(rng.integers(len(CX_TWIRL_SET)))]
        c, t = g.qubits
        for name, q in ((pc, c), (pt, t)):
            if name != "id":
                out.add(name, [q])
        out.append(g)
        for name, q in ((qc, c), (qt, t)):
            if name != "id":
                out.add(name, [q])
    return out


def twirl_ensemble(circuit: Circuit, seed: int | None = None) -> list[Circuit]:
    """:data:`TWIRL_INSTANCES` independently twirled instances; average
    their output distributions to realize the tailored channel."""
    rng = np.random.default_rng(seed)
    return [pauli_twirl(circuit, rng) for _ in range(TWIRL_INSTANCES)]
