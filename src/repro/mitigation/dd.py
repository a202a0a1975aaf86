"""Dynamical decoupling (DD).

Fills idle windows with refocusing pulse sequences. Because the trajectory
simulator applies quasi-static dephasing as a coherent RZ over elapsed idle
time, inserted X pairs *mechanistically* refocus it (an X conjugates RZ to
RZ^-1, so symmetric halves cancel) — fidelity gains emerge from the physics
rather than a fudge factor, at the cost of the pulses' own gate errors.

The sequence is ``XpXm``: two pulses, +X then -X, which this
Pauli-level model treats as two X.
"""

from __future__ import annotations

from ..circuits.circuit import Circuit
from ..simulation.noise import NoiseModel
from ..simulation.schedule import schedule_circuit

__all__ = ["insert_dd"]

#: +X then -X pulse; identical at the Pauli level.
_PULSES = ("x", "x")

#: Idle-time fractions before/between/after pulses. Chosen so the signed sum
#: of segments (sign flips at every pulse, since X anticommutes with Z) is
#: exactly zero — the CPMG condition for full refocusing of quasi-static
#: dephasing.
_SPACINGS = (0.25, 0.5, 0.25)

#: The shortest idle window worth filling.
_MIN_IDLE_NS = 150.0


def insert_dd(circuit: Circuit, noise_model: NoiseModel) -> Circuit:
    """Insert XpXm sequences into idle windows of at least 150 ns.

    The ASAP schedule gives, for every op, the gap since each involved
    qubit was last active; gaps large enough to fit the pulse sequence are
    replaced by ``delay - pulse - delay - pulse - delay`` (a symmetric
    CPMG-style placement).
    """
    pulse_dur = noise_model.default_1q.duration_ns

    free = [0.0] * circuit.num_qubits
    out = Circuit(circuit.num_qubits, f"{circuit.name}_dd")
    out.metadata = dict(circuit.metadata)
    out.metadata["dd_sequence"] = "XpXm"
    inserted = 0

    def emit_dd(q: int, gap_ns: float) -> None:
        nonlocal inserted
        slack = gap_ns - len(_PULSES) * pulse_dur
        for p, share in zip(_PULSES, _SPACINGS):
            out.delay(slack * share, q)
            out.add(p, [q])
        out.delay(slack * _SPACINGS[-1], q)
        inserted += len(_PULSES)

    for op in schedule_circuit(circuit, noise_model).ops:
        # A barrier is a sync point, not an op: the wait in front of it is
        # left unfilled, and its wires count as busy until it.
        if op.name != "barrier":
            for q in op.qubits:
                gap = op.start_ns - free[q]
                if gap >= max(_MIN_IDLE_NS, len(_PULSES) * pulse_dur * 1.5):
                    emit_dd(q, gap)
        out.append(circuit.ops[op.index])
        for q in op.qubits:
            free[q] = op.end_ns
    out.metadata["dd_pulses_inserted"] = inserted
    return out
