"""The one ASAP schedule: per-op start times and the critical path.

Every reader that needs to know *when* an op runs under a device's gate
times reads this walk — ``transpile`` (scheduled duration), the trajectory
simulator (decoherence windows), DD insertion (idle gaps) and the analytic
ESP model (critical-path decoherence).  How long an op lasts is decided
here and nowhere else:

* a unitary gate lasts ``gate_noise(...).duration_ns``;
* ``measure`` / ``reset`` / ``project`` last ``readout_duration_ns`` (a
  projector is a mid-circuit measurement);
* a ``delay`` lasts its parameter;
* a ``barrier`` lasts nothing and syncs its wires;
* anything else lasts nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from ..circuits.circuit import Circuit
from .noise import NoiseModel

__all__ = ["ScheduledOp", "Schedule", "schedule_circuit"]


class ScheduledOp(NamedTuple):
    """One op with resolved timing.

    A barrier's ``qubits`` are the wires it syncs (all of them when the
    gate names none); ``start_ns`` is then the sync point.
    """

    index: int
    name: str
    qubits: tuple[int, ...]
    start_ns: float
    duration_ns: float

    @property
    def end_ns(self) -> float:
        return self.start_ns + self.duration_ns


@dataclass
class Schedule:
    """ASAP schedule of a circuit against a device's gate durations."""

    ops: list[ScheduledOp]
    duration_ns: float


def schedule_circuit(circuit: Circuit, noise_model: NoiseModel) -> Schedule:
    """Assign every op of ``circuit`` its ASAP start time.

    An op starts when the last of its wires frees up and holds all of them
    until ``start + duration``; the schedule's ``duration_ns`` is the
    latest wire to finish.
    """
    finish = [0.0] * circuit.num_qubits
    ops: list[ScheduledOp] = []
    for idx, g in enumerate(circuit.ops):
        wires = g.qubits
        if g.name == "barrier":
            wires = wires or tuple(range(circuit.num_qubits))
            dur = 0.0
        elif g.name == "delay":
            dur = g.params[0]
        elif g.name in ("measure", "reset", "project"):
            dur = noise_model.readout_duration_ns
        elif g.is_unitary:
            dur = noise_model.gate_noise(g.name, g.qubits).duration_ns
        else:
            dur = 0.0
        start = max(map(finish.__getitem__, wires), default=0.0)
        ops.append(ScheduledOp(idx, g.name, wires, start, dur))
        end = start + dur
        for q in wires:
            finish[q] = end
    return Schedule(ops=ops, duration_ns=max(finish, default=0.0))
