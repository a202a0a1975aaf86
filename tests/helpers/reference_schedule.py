"""The ASAP critical-path walk and the ESP model on top of it, kept plain.

``src/`` times a circuit under a device's gate durations in one place;
every reader of that walk must equal, **bit for bit** (``==`` /
``array_equal``, never ``allclose``), the sequential form kept here:

* :func:`reference_timeline` — per-op ``(index, start_ns, duration_ns)``,
  barriers included as zero-length sync points.
* :func:`reference_duration_ns` — the critical-path length.
* :func:`reference_components` — the per-source log-survival terms of the
  analytic ESP model (``repro.simulation.esp.esp_components``).

The op-duration rule: a unitary lasts ``gate_noise(...).duration_ns``,
``measure`` / ``reset`` / ``project`` last ``readout_duration_ns``, a
``delay`` lasts its parameter, a ``barrier`` syncs its wires, anything
else is instantaneous.

Nothing here imports a module it checks; :func:`equivalence_circuits` and
:func:`equivalence_models` are the inputs every walk is held to it on.
"""

import math

from helpers.noise import uniform_noise
from repro.circuits import Circuit
from repro.simulation.noise import GateNoise
from repro.workloads import ghz, ghz_linear, qft, random_circuit

__all__ = [
    "equivalence_circuits",
    "equivalence_models",
    "reference_components",
    "reference_duration_ns",
    "reference_timeline",
]


def _walk(circuit, nm):
    finish = [0.0] * circuit.num_qubits
    timeline = []
    for idx, g in enumerate(circuit.ops):
        if g.name == "barrier":
            wires = g.qubits if g.qubits else tuple(range(circuit.num_qubits))
            sync = max((finish[q] for q in wires), default=0.0)
            for q in wires:
                finish[q] = sync
            timeline.append((idx, sync, 0.0))
            continue
        if g.name == "delay":
            q = g.qubits[0]
            timeline.append((idx, finish[q], g.params[0]))
            finish[q] += g.params[0]
            continue
        if g.name in ("measure", "reset", "project"):
            dur = nm.readout_duration_ns
        elif g.is_unitary:
            dur = nm.gate_noise(g.name, g.qubits).duration_ns
        else:
            dur = 0.0
        start = max(finish[q] for q in g.qubits)
        timeline.append((idx, start, dur))
        for q in g.qubits:
            finish[q] = start + dur
    return timeline, finish


def reference_timeline(circuit, nm):
    """``(op index, start_ns, duration_ns)`` of every op, in circuit order."""
    return _walk(circuit, nm)[0]


def reference_duration_ns(circuit, nm):
    """Critical-path length: the latest per-wire finish time."""
    return max(_walk(circuit, nm)[1], default=0.0)


def reference_components(circuit, nm):
    """Sequential per-op ESP walk."""
    log_gate = 0.0
    log_readout = 0.0
    for g in circuit.ops:
        if g.is_unitary:
            err = nm.gate_noise(g.name, g.qubits).error
            if err >= 1.0:
                return {"gate": -math.inf, "readout": 0.0, "decoherence": 0.0}
            log_gate += math.log1p(-err)
        elif g.name == "measure":
            err = nm.qubits[g.qubits[0]].readout_error
            if err >= 1.0:
                return {"gate": 0.0, "readout": -math.inf, "decoherence": 0.0}
            log_readout += math.log1p(-err)
    duration_us = reference_duration_ns(circuit, nm) / 1000.0
    log_decoh = 0.0
    for q in circuit.used_qubits():
        qn = nm.qubits[q]
        inv_tphi = max(0.0, 1.0 / qn.t2_us - 0.5 / qn.t1_us)
        log_decoh += -duration_us / qn.t1_us * 0.5
        log_decoh += -duration_us * inv_tphi * 0.5
    return {"gate": log_gate, "readout": log_readout, "decoherence": log_decoh}


def equivalence_circuits():
    """A mix exercising every scheduling feature: parallel wires, delays,
    full and partial barriers, mid-circuit reset and projection."""
    circuits = [
        ghz(3),
        Circuit(6, "ghz_linear_6^2").compose(ghz_linear(6)).compose(ghz_linear(6)),
        qft(4, measure=True),
        Circuit(4).cx(0, 1).delay(120.0, 2).barrier().cx(2, 3).measure_all(),
        Circuit(2).h(0).barrier(0).delay(50.0, 1).cx(0, 1).measure(1),
        Circuit(5).x(0).reset(0).cx(0, 4).project(1, 4),
    ]
    for seed, width in ((3, 3), (5, 5), (9, 7)):
        circuits.append(
            random_circuit(width, depth=6, two_qubit_prob=0.4, seed=seed)
        )
    return circuits


def equivalence_models(num_qubits=8):
    uniform = uniform_noise(
        num_qubits, error_2q=0.02, readout_error=0.03, duration_2q_ns=320.0
    )
    hetero = uniform_noise(
        num_qubits, t1_us=60.0, t2_us=35.0, error_2q=0.03, readout_error=0.04
    )
    hetero.gates_1q[("sx", 0)] = GateNoise(error=0.004, duration_ns=70.0)
    hetero.gates_1q[("rz", 2)] = GateNoise(error=0.0, duration_ns=0.0)
    hetero.gates_2q[(0, 1)] = GateNoise(error=0.055, duration_ns=410.0)
    return [uniform, hetero]
