"""Quantum phase estimation and a ripple-carry adder workload."""

from __future__ import annotations

import math

from ..circuits.circuit import Circuit
from .qft import qft

__all__ = ["phase_estimation", "ripple_adder"]


def phase_estimation(num_counting: int) -> Circuit:
    """QPE of a Z-rotation eigenphase on one target qubit.

    The target qubit (index ``num_counting``) is prepared in |1>, an
    eigenstate of the phase gate; counting qubits read out the phase,
    0.3125 = 0.0101 in binary. Total width is ``num_counting + 1``.
    """
    if num_counting < 1:
        raise ValueError("QPE needs >= 1 counting qubit")
    phase = 0.3125
    n = num_counting + 1
    target = num_counting
    circ = Circuit(n, f"qpe_{n}")
    circ.metadata["phase"] = phase
    circ.x(target)
    for q in range(num_counting):
        circ.h(q)
    for q in range(num_counting):
        reps = 2**q
        angle = 2.0 * math.pi * phase * reps
        circ.cp(angle, q, target)
    inverse_qft = qft(num_counting, swaps=True).inverse()
    circ.compose(inverse_qft, qubits=list(range(num_counting)))
    for q in range(num_counting):
        circ.measure(q)
    return circ


def ripple_adder(num_bits: int) -> Circuit:
    """Cuccaro-style ripple-carry adder computing a+b into register b, with
    ``a = 2**num_bits - 1`` and ``b = 1``: the carry ripples through every
    bit.

    Layout: qubit 0 = carry-in ancilla, then interleaved b_i, a_i pairs,
    final qubit = carry-out. Width = 2*num_bits + 2.
    """
    if num_bits < 1:
        raise ValueError("adder needs >= 1 bit")
    a = (1 << num_bits) - 1
    b = 1
    n = 2 * num_bits + 2
    circ = Circuit(n, f"adder_{num_bits}b")
    circ.metadata["a"] = a
    circ.metadata["b"] = b

    def a_q(i: int) -> int:
        return 2 + 2 * i

    def b_q(i: int) -> int:
        return 1 + 2 * i

    carry_in, carry_out = 0, n - 1
    for i in range(num_bits):
        if (a >> i) & 1:
            circ.x(a_q(i))
        if (b >> i) & 1:
            circ.x(b_q(i))

    def maj(c: int, bq: int, aq: int) -> None:
        circ.cx(aq, bq)
        circ.cx(aq, c)
        # Toffoli(c, bq -> aq) via standard H/T decomposition
        _toffoli(circ, c, bq, aq)

    def uma(c: int, bq: int, aq: int) -> None:
        _toffoli(circ, c, bq, aq)
        circ.cx(aq, c)
        circ.cx(c, bq)

    maj(carry_in, b_q(0), a_q(0))
    for i in range(1, num_bits):
        maj(a_q(i - 1), b_q(i), a_q(i))
    circ.cx(a_q(num_bits - 1), carry_out)
    for i in range(num_bits - 1, 0, -1):
        uma(a_q(i - 1), b_q(i), a_q(i))
    uma(carry_in, b_q(0), a_q(0))

    for i in range(num_bits):
        circ.measure(b_q(i))
    circ.measure(carry_out)
    return circ


def _toffoli(circ: Circuit, c1: int, c2: int, target: int) -> None:
    """Standard 6-CX Toffoli decomposition into the Clifford+T set."""
    circ.h(target)
    circ.cx(c2, target)
    circ.tdg(target)
    circ.cx(c1, target)
    circ.t(target)
    circ.cx(c2, target)
    circ.tdg(target)
    circ.cx(c1, target)
    circ.t(c2)
    circ.t(target)
    circ.h(target)
    circ.cx(c1, c2)
    circ.t(c1)
    circ.tdg(c2)
    circ.cx(c1, c2)
