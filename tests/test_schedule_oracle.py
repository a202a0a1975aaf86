"""Every ASAP walk in ``src/`` against the sequential reference.

``tests/helpers/reference_schedule.py`` keeps the critical-path walk in
its plain form; each reader in ``src/`` — ``schedule_circuit``, the
trajectory simulator's timeline, the gaps ``insert_dd`` fills and
``circuit_duration_ns`` — is held to it with ``==`` on every circuit x
model of the equivalence set, and the simulator's draw order is pinned by
three ``noisy_probabilities`` arrays captured at 8d33883.
"""

import numpy as np
import pytest

from helpers.reference_schedule import (
    equivalence_circuits,
    equivalence_models,
    reference_duration_ns,
    reference_timeline,
)
from repro.circuits import Circuit, Gate
from repro.mitigation.dd import _SEQUENCES, _SPACINGS, insert_dd
from repro.simulation import NoiseModel, NoisySimulator, circuit_duration_ns
from repro.transpiler import schedule_circuit


def _has_project(circuit):
    return any(g.name == "project" for g in circuit.ops)


CASES = [
    pytest.param(c, nm, id=f"{i}-{c.name}-{label}")
    for i, c in enumerate(equivalence_circuits())
    for label, nm in zip(("uniform", "hetero"), equivalence_models())
]
#: The four walks disagree on how long a ``project`` lasts (pinned below),
#: so equality is asserted where none occurs.
AGREED = [p for p in CASES if not _has_project(p.values[0])]


def _project_circuit():
    return Circuit(3).h(0).cx(0, 1).project(0, 1).cx(1, 2)


class TestWalksEqualTheReference:
    @pytest.mark.parametrize("circuit, nm", AGREED)
    def test_schedule_circuit(self, circuit, nm):
        sched = schedule_circuit(circuit, nm)
        assert sched.duration_ns == reference_duration_ns(circuit, nm)
        assert [
            (op.index, op.start_ns, op.duration_ns) for op in sched.ops
        ] == [
            entry
            for entry in reference_timeline(circuit, nm)
            if circuit.ops[entry[0]].name != "barrier"
        ]

    @pytest.mark.parametrize("circuit, nm", CASES)
    def test_simulator_timeline(self, circuit, nm):
        timeline = NoisySimulator(nm, seed=0)._build_timeline(circuit)
        assert timeline == reference_timeline(circuit, nm)

    @pytest.mark.parametrize("circuit, nm", CASES)
    def test_circuit_duration_ns(self, circuit, nm):
        assert circuit_duration_ns(circuit, nm) == reference_duration_ns(
            circuit, nm
        )


def _expected_dd_ops(circuit, nm, sequence_type, min_idle_ns):
    """``insert_dd``'s output built from the reference timeline: the gap
    before an op on a wire runs from that wire's last op *or barrier*."""
    pulses, spacings = _SEQUENCES[sequence_type], _SPACINGS[sequence_type]
    busy = len(pulses) * nm.default_1q.duration_ns
    free = [0.0] * circuit.num_qubits
    out = []
    for idx, start, dur in reference_timeline(circuit, nm):
        g = circuit.ops[idx]
        wires = g.qubits
        if g.name == "barrier":
            wires = g.qubits or range(circuit.num_qubits)
        else:
            for q in wires:
                gap = start - free[q]
                if gap >= max(min_idle_ns, busy * 1.5):
                    for pulse, share in zip(pulses, spacings):
                        out.append(Gate("delay", (q,), ((gap - busy) * share,)))
                        out.append(Gate(pulse, (q,)))
                    out.append(
                        Gate("delay", (q,), ((gap - busy) * spacings[-1],))
                    )
        out.append(g)
        for q in wires:
            free[q] = start + dur
    return out


class TestDDFillsTheReferenceGaps:
    @pytest.mark.parametrize("min_idle_ns", [150.0, 40.0])
    @pytest.mark.parametrize("sequence_type", ["XpXm", "XY4"])
    @pytest.mark.parametrize("circuit, nm", AGREED)
    def test_output_is_op_for_op_equal(
        self, circuit, nm, sequence_type, min_idle_ns
    ):
        out = insert_dd(
            circuit, nm, sequence_type=sequence_type, min_idle_ns=min_idle_ns
        )
        assert out.ops == _expected_dd_ops(
            circuit, nm, sequence_type, min_idle_ns
        )

    def test_the_set_has_gaps_to_fill(self):
        inserted = [
            insert_dd(p.values[0], p.values[1]).metadata["dd_pulses_inserted"]
            for p in AGREED
        ]
        assert sum(1 for n in inserted if n) >= 10


class TestProjectDuration:
    """As found at 8d33883: a ``project`` lasts 0 ns to ``transpile`` and
    ``insert_dd`` and ``readout_duration_ns`` to the simulator and the ESP
    model that then score the same circuit."""

    def test_the_walks_disagree(self):
        circuit = _project_circuit()
        nm = NoiseModel.uniform(3, error_2q=0.02, duration_2q_ns=300.0)
        assert schedule_circuit(circuit, nm).duration_ns == 635.0
        assert circuit_duration_ns(circuit, nm) == 1435.0
        assert NoisySimulator(nm, seed=0)._build_timeline(circuit) == [
            (0, 0.0, 35.0), (1, 35.0, 300.0), (2, 335.0, 800.0),
            (3, 1135.0, 300.0),
        ]
        assert reference_duration_ns(circuit, nm) == 1435.0


#: ``NoisySimulator(_PIN_MODEL, num_trajectories=8, seed=4)
#: .noisy_probabilities(c)`` at 8d33883 — noisy enough that kicks fire in
#: 8 trajectories, so a moved draw moves these.
_PIN_MODEL_KWARGS = dict(t1_us=8.0, t2_us=5.0, error_2q=0.15, readout_error=0.04)
_PINNED_PROBABILITIES = [
    (
        equivalence_circuits()[6],  # random_3x6
        [
            0.1533008691407871, 0.08426055224431182, 0.05979738523733078,
            0.2021185132805146, 0.153179867421238, 0.08480777423498705,
            0.06015333389036091, 0.2023817045504691,
        ],
    ),
    (
        equivalence_circuits()[3],  # delay, full barrier, measure_all
        [
            0.6458572799999999, 0.02691072, 0.02691072,
            0.0011212799999999999, 0.02691072, 0.00112128, 0.00112128,
            4.671999999999999e-05, 0.23887872, 0.009953279999999998,
            0.009953279999999998, 0.00041472, 0.00995328,
            0.00041471999999999993, 0.00041471999999999993, 1.728e-05,
        ],
    ),
    (
        _project_circuit(),
        [
            0.3871679999999998, 0.016131999999999997, 0.018431999999999997,
            0.0007679999999999997, 0.018431999999999994,
            0.0007679999999999998, 0.05596799999999998,
            0.0023319999999999994,
        ],
    ),
]


@pytest.mark.parametrize(
    "circuit, pinned", _PINNED_PROBABILITIES, ids=["random", "barrier", "project"]
)
def test_simulator_draw_order_is_pinned(circuit, pinned):
    nm = NoiseModel.uniform(8, **_PIN_MODEL_KWARGS)
    probs = NoisySimulator(nm, num_trajectories=8, seed=4).noisy_probabilities(
        circuit
    )
    assert np.array_equal(probs, np.array(pinned))
