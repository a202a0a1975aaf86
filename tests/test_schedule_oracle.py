"""The one ASAP walk in ``src/`` and its readers against the sequential
reference.

``tests/helpers/reference_schedule.py`` keeps the critical-path walk and
the ESP model on top of it in their plain form; ``schedule_circuit`` and
what each reader makes of it — the trajectory simulator's decoherence
windows, the gaps ``insert_dd`` fills, ``circuit_duration_ns`` and
``esp_components`` — are held to it with ``==`` on every circuit x model
of the equivalence set, and the simulator's draw order is pinned by three
``noisy_probabilities`` arrays captured at 8d33883 (when the simulator,
``insert_dd``, ``transpile`` and a batched ESP kernel each walked alone).
"""

import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import repro
from helpers.noise import uniform_noise
from helpers.reference_schedule import (
    equivalence_circuits,
    equivalence_models,
    reference_components,
    reference_duration_ns,
    reference_timeline,
)
from repro.circuits import Circuit, Gate
from repro.mitigation.dd import insert_dd
from repro.simulation import (
    GateNoise,
    NoiseModel,
    NoisySimulator,
    QubitNoise,
    circuit_duration_ns,
    esp,
    esp_components,
    schedule_circuit,
)
from repro.transpiler import Target, transpile
from repro.workloads import ghz, ghz_linear

CASES = [
    pytest.param(c, nm, id=f"{i}-{c.name}-{label}")
    for i, c in enumerate(equivalence_circuits())
    for label, nm in zip(("uniform", "hetero"), equivalence_models())
]


def _project_circuit():
    return Circuit(3).h(0).cx(0, 1).project(0, 1).cx(1, 2)


def _expected_windows(circuit, nm):
    """The simulator's decoherence windows, ``(qubit, dt_ns)`` in plan
    order: a wire's idle time since its last op, then the op itself."""
    last_end = [0.0] * circuit.num_qubits
    windows = []
    for idx, start, dur in reference_timeline(circuit, nm):
        g = circuit.ops[idx]
        if g.name == "barrier":
            continue
        windows += [
            (q, start - last_end[q]) for q in g.qubits if start > last_end[q]
        ]
        if dur > 0.0:
            windows += [(q, dur) for q in g.qubits]
        for q in g.qubits:
            last_end[q] = start + dur
    return windows


class TestWalksEqualTheReference:
    @pytest.mark.parametrize("circuit, nm", CASES)
    def test_schedule_circuit(self, circuit, nm):
        sched = schedule_circuit(circuit, nm)
        assert sched.duration_ns == reference_duration_ns(circuit, nm)
        assert [
            (op.index, op.start_ns, op.duration_ns) for op in sched.ops
        ] == reference_timeline(circuit, nm)

    @pytest.mark.parametrize("circuit, nm", CASES)
    def test_simulator_windows(self, circuit, nm):
        plan = NoisySimulator(nm, seed=0)._noise_plan(circuit)
        windows = [ev[1:] for ev in plan if ev[0] == "window"]
        assert windows == _expected_windows(circuit, nm)

    @pytest.mark.parametrize("circuit, nm", CASES)
    def test_circuit_duration_ns(self, circuit, nm):
        assert circuit_duration_ns(circuit, nm) == reference_duration_ns(
            circuit, nm
        )


class TestEspEqualsTheSequentialWalk:
    @pytest.mark.parametrize("circuit, nm", CASES)
    def test_components(self, circuit, nm):
        ref = reference_components(circuit, nm)
        assert esp_components(circuit, nm) == ref
        assert esp(circuit, nm) == math.exp(sum(ref.values()))

    def test_narrow_circuits_on_a_wide_model(self):
        nm = uniform_noise(9, error_2q=0.02, readout_error=0.02)
        for circuit in (ghz(2), ghz_linear(9), ghz(5)):
            ref = reference_components(circuit, nm)
            assert esp(circuit, nm) == math.exp(sum(ref.values())), circuit.name

    def test_certain_failure_short_circuits(self):
        # Gate errors are validated < 1, so the only reachable certain
        # failure is a fully-scrambled readout (p01 = p10 = 1).
        nm = uniform_noise(2, error_2q=0.02)
        nm.qubits[1] = QubitNoise(
            t1_us=100.0, t2_us=80.0, readout_p01=1.0, readout_p10=1.0
        )
        c = Circuit(2).cx(0, 1).measure_all()
        comps = esp_components(c, nm)
        assert comps == {"gate": 0.0, "readout": -math.inf, "decoherence": 0.0}
        assert esp(c, nm) == 0.0
        assert reference_components(c, nm) == comps


def _expected_dd_ops(circuit, nm):
    """``insert_dd``'s output built from the reference timeline: the gap
    before an op on a wire runs from that wire's last op *or barrier*, and
    one of 150 ns or more (and 1.5 times the pulses' length) gets an XpXm
    pair at a quarter, a half and a quarter of the slack."""
    pulses, spacings = ("x", "x"), (0.25, 0.5, 0.25)
    min_idle_ns = 150.0
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
    #: 1q pulse lengths: the models' own (35 ns, so gaps of 150 ns and up
    #: get a pair), and two long enough that a pair needs 1.5 times its
    #: own length, 240 ns and 360 ns, before it fits.
    @pytest.mark.parametrize("pulse_ns", [None, 80.0, 120.0])
    @pytest.mark.parametrize("circuit, nm", CASES)
    def test_output_is_op_for_op_equal(self, circuit, nm, pulse_ns):
        if pulse_ns is not None:
            nm = dataclasses.replace(
                nm, default_1q=GateNoise(nm.default_1q.error, pulse_ns)
            )
        assert insert_dd(circuit, nm).ops == _expected_dd_ops(circuit, nm)

    @pytest.mark.parametrize("idle_ns, pulses", [(149.0, 0), (150.0, 2), (900.0, 2)])
    def test_a_pair_fills_idles_of_150_ns_and_up(self, idle_ns, pulses):
        nm = NoiseModel.uniform(2)
        circuit = Circuit(2).delay(idle_ns, 0).cx(0, 1)
        out = insert_dd(circuit, nm)
        # Qubit 1 waits ``idle_ns`` for the delay on qubit 0.
        assert out.metadata["dd_pulses_inserted"] == pulses
        assert sum(g.name == "x" for g in out.ops) == pulses

    def test_the_set_has_gaps_to_fill(self):
        inserted = [
            insert_dd(p.values[0], p.values[1]).metadata["dd_pulses_inserted"]
            for p in CASES
        ]
        assert sum(1 for n in inserted if n) >= 10


class TestProjectLastsAReadout:
    """A projector is a mid-circuit measurement: every reader charges it
    ``readout_duration_ns``.  (At 8d33883 it lasted 0 ns to ``transpile``
    and ``insert_dd`` — 635.0 ns for the circuit below — and a readout to
    the simulator and the ESP model that then scored it.)"""

    def test_the_walks_agree(self):
        circuit = _project_circuit()
        nm = uniform_noise(3, error_2q=0.02, duration_2q_ns=300.0)
        assert schedule_circuit(circuit, nm).duration_ns == 1435.0
        assert circuit_duration_ns(circuit, nm) == 1435.0
        assert reference_duration_ns(circuit, nm) == 1435.0

    def test_transpile_charges_it(self):
        nm = NoiseModel.uniform(2, edges=[(0, 1)])
        target = Target(2, ((0, 1),), ("cx", "rz", "sx", "x"), nm)
        bare = transpile(Circuit(2).cx(0, 1), target)
        projected = transpile(Circuit(2).cx(0, 1).project(0, 1), target)
        assert projected.duration_ns == bare.duration_ns + nm.readout_duration_ns

    def test_the_simulator_decoheres_over_it(self):
        nm = NoiseModel.uniform(2)
        plan = NoisySimulator(nm, seed=0)._noise_plan(Circuit(2).project(0, 1))
        assert plan == [("project", 0), ("window", 1, nm.readout_duration_ns)]

    def test_insert_dd_fills_the_wait_beside_it(self):
        nm = NoiseModel.uniform(2)
        out = insert_dd(Circuit(2).project(0, 0).cx(0, 1), nm)
        slack = nm.readout_duration_ns - 2 * nm.default_1q.duration_ns
        assert out.ops == [
            Gate("project", (0,), (0.0,)),
            Gate("delay", (1,), (slack * 0.25,)),
            Gate("x", (1,)),
            Gate("delay", (1,), (slack * 0.5,)),
            Gate("x", (1,)),
            Gate("delay", (1,), (slack * 0.25,)),
            Gate("cx", (0, 1)),
        ]

    def test_esp_decoheres_over_it(self):
        nm = NoiseModel.uniform(1)
        with_project = esp_components(Circuit(1).x(0).project(1, 0), nm)
        with_measure = esp_components(Circuit(1).x(0).reset(0), nm)
        assert with_project == with_measure
        assert with_project["decoherence"] < esp_components(
            Circuit(1).x(0), nm
        )["decoherence"]


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
    nm = uniform_noise(8, **_PIN_MODEL_KWARGS)
    probs = NoisySimulator(nm, num_trajectories=8, seed=4).noisy_probabilities(
        circuit
    )
    assert np.array_equal(probs, np.array(pinned))


# ----------------------------------------------------------------------
# Guard: one module under src/ decides how long an op lasts
# ----------------------------------------------------------------------

SRC = Path(repro.__file__).parent


def _is_attr(node, name):
    return isinstance(node, ast.Attribute) and node.attr == name


def _times_an_op(path):
    """Lines of ``path`` that read ``.duration_ns`` straight off a
    ``gate_noise(...)`` call, or pick ``readout_duration_ns`` in a branch
    on an op's ``.name`` — the two halves of an op-duration rule."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (
            _is_attr(node, "duration_ns")
            and isinstance(node.value, ast.Call)
            and _is_attr(node.value.func, "gate_noise")
        ) or (
            isinstance(node, ast.If)
            and any(_is_attr(n, "name") for n in ast.walk(node.test))
            and any(
                _is_attr(n, "readout_duration_ns")
                for stmt in node.body
                for n in ast.walk(stmt)
            )
        ):
            found.append(f"{path.name}:{node.lineno}")
    return found


class TestOneModuleTimesAnOp:
    def test_only_the_schedule_walk_does(self):
        # Three at 8d33883: transpiler/scheduling.py, simulation/trajectory.py
        # and mitigation/dd.py.
        modules = [
            str(path.relative_to(SRC))
            for path in sorted(SRC.rglob("*.py"))
            if _times_an_op(path)
        ]
        assert modules == ["simulation/schedule.py"]

    def test_guard_sees_both_halves_of_a_rule(self, tmp_path):
        sample = tmp_path / "sample.py"
        sample.write_text(
            "if g.name in ('measure', 'reset'):\n"
            "    dur = nm.readout_duration_ns\n"
            "elif g.is_unitary:\n"
            "    dur = nm.gate_noise(g.name, g.qubits).duration_ns\n"
            "gn = nm.gate_noise('cx', (a, b))\n"
            "tail = res.duration_ns - model.readout_duration_ns\n"
        )
        assert _times_an_op(sample) == ["sample.py:1", "sample.py:4"]
