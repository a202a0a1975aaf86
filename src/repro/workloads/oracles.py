"""Oracle-style textbook algorithms: Bernstein-Vazirani, Deutsch-Jozsa."""

from __future__ import annotations

import numpy as np

from ..circuits.circuit import Circuit, SinkT

__all__ = ["bernstein_vazirani", "deutsch_jozsa"]


def bernstein_vazirani(num_qubits: int) -> Circuit:
    """BV with the phase-kickback oracle folded into Z gates.

    ``num_qubits`` counts only the data register (the ancilla is optimized
    away by compiling the oracle into Z gates on the secret's 1-bits, the
    standard ancilla-free formulation).  The secret alternates ``10...``
    and ends in ``1`` at an odd width.
    """
    if num_qubits < 1:
        raise ValueError("BV needs >= 1 qubit")
    secret = "10" * (num_qubits // 2) + ("1" if num_qubits % 2 else "")
    circ = Circuit(num_qubits, f"bv_{num_qubits}")
    circ.metadata["secret"] = secret
    for q in range(num_qubits):
        circ.h(q)
    for q in range(num_qubits):
        if secret[num_qubits - 1 - q] == "1":
            circ.z(q)
    for q in range(num_qubits):
        circ.h(q)
    circ.measure_all()
    return circ


def deutsch_jozsa(
    num_qubits: int,
    *,
    seed: int = 0,
    sink: type[SinkT] = Circuit,  # type: ignore[assignment]
) -> SinkT:
    """DJ on a balanced oracle (ancilla-free form), written into ``sink``."""
    if num_qubits < 1:
        raise ValueError("DJ needs >= 1 qubit")
    circ = sink(num_qubits, f"dj_{num_qubits}")
    circ.metadata["balanced"] = True
    for q in range(num_qubits):
        circ.h(q)
    # A balanced phase oracle: f(x) = x . s for a random nonzero mask s.
    rng = np.random.default_rng(seed)
    mask = 0
    while mask == 0:
        if num_qubits < 64:
            mask = int(rng.integers(1, 2**num_qubits))
        else:
            # 2**n is past NumPy's int64 bound from n = 64 on: draw
            # 32-bit limbs there (narrow widths keep their stream).
            limbs = rng.integers(0, 2**32, size=-(-num_qubits // 32))
            mask = int.from_bytes(limbs.astype("<u4").tobytes(), "little")
            mask %= 2**num_qubits
    for q in range(num_qubits):
        if (mask >> q) & 1:
            circ.z(q)
    for q in range(num_qubits):
        circ.h(q)
    circ.measure_all()
    return circ
