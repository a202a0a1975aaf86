"""Dynamical decoupling (DD).

Fills idle windows with refocusing pulse sequences. Because the trajectory
simulator applies quasi-static dephasing as a coherent RZ over elapsed idle
time, inserted X pairs *mechanistically* refocus it (an X conjugates RZ to
RZ^-1, so symmetric halves cancel) — fidelity gains emerge from the physics
rather than a fudge factor, at the cost of the pulses' own gate errors.

Sequences: ``XpXm`` (two pulses; +X then -X, which this Pauli-level
model treats as two X) and ``XY4`` (four pulses, also refocusing
stochastic X/Y to first order). DD stacks run :func:`insert_dd`'s
defaults.
"""

from __future__ import annotations

from ..circuits.circuit import Circuit
from ..simulation.noise import NoiseModel
from ..simulation.schedule import schedule_circuit

__all__ = ["insert_dd"]

_SEQUENCES: dict[str, tuple[str, ...]] = {
    "XpXm": ("x", "x"),  # +X then -X pulse; identical at the Pauli level
    "XY4": ("x", "y", "x", "y"),
}

#: Idle-time fractions before/between/after pulses. Chosen so the signed sum
#: of segments (sign flips at every pulse, since X and Y both anticommute
#: with Z) is exactly zero — the CPMG condition for full refocusing of
#: quasi-static dephasing.
_SPACINGS: dict[str, tuple[float, ...]] = {
    "XpXm": (0.25, 0.5, 0.25),
    "XY4": (0.125, 0.25, 0.25, 0.25, 0.125),
}


def insert_dd(
    circuit: Circuit,
    noise_model: NoiseModel,
    *,
    sequence_type: str = "XpXm",
    min_idle_ns: float = 150.0,
) -> Circuit:
    """Insert DD sequences into idle windows longer than ``min_idle_ns``.

    The ASAP schedule gives, for every op, the gap since each involved
    qubit was last active; gaps large enough to fit the pulse sequence are
    replaced by ``delay - pulse - delay - pulse - ... - delay`` with equal
    spacing (a symmetric CPMG-style placement).
    """
    if sequence_type not in _SEQUENCES:
        raise ValueError(
            f"unknown DD sequence {sequence_type!r}; options: {sorted(_SEQUENCES)}"
        )
    pulses = _SEQUENCES[sequence_type]
    pulse_dur = noise_model.default_1q.duration_ns

    free = [0.0] * circuit.num_qubits
    out = Circuit(circuit.num_qubits, f"{circuit.name}_dd")
    out.metadata = dict(circuit.metadata)
    out.metadata["dd_sequence"] = sequence_type
    inserted = 0

    spacings = _SPACINGS[sequence_type]

    def emit_dd(q: int, gap_ns: float) -> None:
        nonlocal inserted
        n_pulses = len(pulses)
        slack = gap_ns - n_pulses * pulse_dur
        for i, p in enumerate(pulses):
            out.delay(slack * spacings[i], q)
            out.add(p, [q])
        out.delay(slack * spacings[-1], q)
        inserted += n_pulses

    for op in schedule_circuit(circuit, noise_model).ops:
        # A barrier is a sync point, not an op: the wait in front of it is
        # left unfilled, and its wires count as busy until it.
        if op.name != "barrier":
            for q in op.qubits:
                gap = op.start_ns - free[q]
                if gap >= max(min_idle_ns, len(pulses) * pulse_dur * 1.5):
                    emit_dd(q, gap)
        out.append(circuit.ops[op.index])
        for q in op.qubits:
            free[q] = op.end_ns
    out.metadata["dd_pulses_inserted"] = inserted
    return out
