"""Unit tests for the circuit IR (gates, circuit container, metrics)."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers.reference_metrics import compute_metrics_reference
from repro.circuits import (
    GATE_SPECS,
    Circuit,
    Gate,
    MetricsWriter,
    compute_metrics,
    gate_matrix,
    inverse_gate,
)


class TestGates:
    def test_all_unitary_specs_are_unitary(self):
        for name, spec in GATE_SPECS.items():
            if spec.matrix_fn is None:
                continue
            params = tuple(0.37 for _ in range(spec.num_params))
            mat = spec.matrix(params)
            dim = 2**spec.num_qubits
            assert mat.shape == (dim, dim)
            assert np.allclose(mat @ mat.conj().T, np.eye(dim), atol=1e-10), name

    def test_unknown_gate_rejected(self):
        with pytest.raises(ValueError, match="unknown gate"):
            Gate("nope", (0,))

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError, match="expects 2 qubits"):
            Gate("cx", (0,))

    def test_wrong_params_rejected(self):
        with pytest.raises(ValueError, match="params"):
            Gate("rx", (0,))

    def test_every_spec_refuses_a_wrong_parameter_count(self):
        for name, spec in GATE_SPECS.items():
            if name == "delay":  # its duration is the one optional param
                continue
            qubits = tuple(range(max(1, spec.num_qubits)))
            Gate(name, qubits, (0.1,) * spec.num_params)
            with pytest.raises(ValueError, match="params"):
                Gate(name, qubits, (0.1,) * (spec.num_params + 1))

    def test_arity_and_unitarity_of_gates(self):
        """What a two-qubit gate count reads off each op."""
        for name in ("cx", "cz", "swap", "rzz"):
            params = (0.3,) * GATE_SPECS[name].num_params
            g = Gate(name, (0, 1), params)
            assert g.num_qubits == 2 and g.is_unitary, name
        assert Gate("h", (0,)).num_qubits == 1
        assert not Gate("measure", (0,)).is_unitary
        assert not Gate("reset", (0,)).is_unitary

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Gate("cx", (1, 1))

    def test_inverse_self_inverse(self):
        g = Gate("h", (0,))
        assert inverse_gate(g) == g

    def test_inverse_named(self):
        assert inverse_gate(Gate("s", (2,))).name == "sdg"
        assert inverse_gate(Gate("tdg", (0,))).name == "t"

    def test_inverse_parametric_negates(self):
        g = Gate("rz", (0,), (0.7,))
        inv = inverse_gate(g)
        assert inv.params == (-0.7,)
        assert np.allclose(g.matrix() @ inv.matrix(), np.eye(2), atol=1e-12)

    def test_inverse_u_gate(self):
        g = Gate("u", (0,), (0.3, 0.5, 0.9))
        inv = inverse_gate(g)
        assert np.allclose(g.matrix() @ inv.matrix(), np.eye(2), atol=1e-12)

    def test_inverse_non_unitary_raises(self):
        with pytest.raises(ValueError, match="non-unitary"):
            inverse_gate(Gate("measure", (0,)))

    def test_remap(self):
        g = Gate("cx", (0, 1)).remap({0: 5, 1: 3})
        assert g.qubits == (5, 3)

    def test_cx_matrix_convention(self):
        # |10> (control=1 on qubit 0... convention: first listed qubit is
        # control; matrix rows indexed with first qubit as the high bit.
        cx = gate_matrix("cx")
        assert cx[2, 3] == 1 and cx[3, 2] == 1  # |10><11| + |11><10|

    def test_error_messages(self):
        cases = [
            (("nope", (0,)), "unknown gate 'nope'"),
            (("cx", (0,)), "gate 'cx' expects 2 qubits, got 1"),
            (("rx", (0,)), "gate 'rx' expects 1 params, got 0"),
            (("cx", (1, 1)), "duplicate qubits in 'cx': (1, 1)"),
            (("barrier", (0, 2, 0)), "duplicate qubits in 'barrier': (0, 2, 0)"),
        ]
        for args, message in cases:
            with pytest.raises(ValueError) as info:
                Gate(*args)
            assert str(info.value) == message

    def test_barrier_and_delay_widths(self):
        assert Gate("barrier", ()).qubits == ()
        assert Gate("barrier", (0, 1, 2)).num_qubits == 3
        assert Gate("delay", (0,)).params == ()

    def test_is_unitary_follows_the_spec(self):
        for name, spec in GATE_SPECS.items():
            qubits = tuple(range(spec.num_qubits))
            gate = Gate(name, qubits, (0.5,) * spec.num_params)
            assert gate.is_unitary is (spec.matrix_fn is not None), name

    def test_immutable_hashable_equal_by_value(self):
        import dataclasses
        import pickle

        g = Gate("rz", (3,), (0.25,))
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.name = "rx"
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.is_unitary = False
        twin = Gate("rz", (3,), (0.25,))
        assert g == twin and hash(g) == hash(twin) and len({g, twin}) == 1
        assert g != Gate("rz", (3,), (0.5,)) and g != ("rz", (3,), (0.25,))
        restored = pickle.loads(pickle.dumps(g))
        assert restored == g and restored.is_unitary
        assert repr(g) == "Gate(name='rz', qubits=(3,), params=(0.25,))"

    def test_standard_matrices_are_read_only(self):
        # In-place writes to a shared constant used to change every later
        # gate of that type, process-wide (the proxy tables included).
        before = gate_matrix("h").copy()
        with pytest.raises(ValueError, match="read-only"):
            Gate("h", (0,)).matrix()[0, 0] = 7
        assert np.array_equal(gate_matrix("h"), before)
        for name, spec in GATE_SPECS.items():
            if spec.matrix_fn is not None and spec.num_params == 0:
                assert not gate_matrix(name).flags.writeable, name
        # A bound parametric matrix is the caller's own.
        mat = gate_matrix("rz", 0.3)
        mat[0, 0] = 1.0
        assert gate_matrix("rz", 0.3)[0, 0] != 1.0


class TestCircuit:
    def test_builder_chain(self):
        c = Circuit(2).h(0).cx(0, 1).measure_all()
        assert len(c) == 4
        assert Counter(g.name for g in c.ops) == {"h": 1, "cx": 1, "measure": 2}

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            Circuit(0)

    def test_out_of_range_qubit(self):
        with pytest.raises(ValueError, match="out of range"):
            Circuit(2).h(5)

    def test_float_qubit_refused_not_truncated(self):
        # Circuit(3).h(1.7) used to act on qubit 1, .cx(0.2, 2.9) on (0, 2).
        with pytest.raises(TypeError, match=r"'h'.*1\.7"):
            Circuit(3).h(1.7)
        with pytest.raises(TypeError, match=r"'cx'.*0\.2, 2\.9"):
            Circuit(3).cx(0.2, 2.9)
        with pytest.raises(TypeError, match="'x'"):
            Circuit(3).x(2.0)
        with pytest.raises(TypeError, match="'rz'"):
            Circuit(3).rz(0.5, np.float64(1.0))

    def test_integer_like_qubits_accepted(self):
        c = Circuit(3).h(np.int64(2)).cx(np.int32(0), 1).add("x", iter([True]))
        assert [g.qubits for g in c] == [(2,), (0, 1), (1,)]
        assert all(type(q) is int for g in c for q in g.qubits)

    def test_depth_linear(self):
        c = Circuit(1).h(0).h(0).h(0)
        assert c.depth() == 3

    def test_depth_parallel(self):
        c = Circuit(3).h(0).h(1).h(2)
        assert c.depth() == 1

    def test_depth_two_qubit_only(self):
        c = Circuit(2).h(0).cx(0, 1).h(1).cx(0, 1)
        assert c.depth(two_qubit_only=True) == 2

    def test_barrier_synchronizes_depth(self):
        c = Circuit(2).h(0)
        c.barrier(0, 1)
        c.h(1)
        assert c.depth() == 2  # h(1) must come after the barrier sync point

    def test_compose_with_mapping(self):
        inner = Circuit(2).cx(0, 1)
        outer = Circuit(4).compose(inner, qubits=[2, 3])
        assert outer.ops[0].qubits == (2, 3)

    def test_compose_wrong_mapping_size(self):
        with pytest.raises(ValueError):
            Circuit(4).compose(Circuit(2).h(0), qubits=[0])

    def test_inverse_reverses_and_inverts(self):
        c = Circuit(2).h(0).s(0).cx(0, 1)
        inv = c.inverse()
        names = [g.name for g in inv.ops]
        assert names == ["cx", "sdg", "h"]

    def test_inverse_roundtrip_unitary(self):
        c = Circuit(2).h(0).t(0).cx(0, 1).rz(0.3, 1)
        u = c.copy().compose(c.inverse()).unitary()
        assert np.allclose(u, np.eye(4), atol=1e-10)

    def test_compose_repeats_a_circuit(self):
        c = Circuit(1, "x").x(0)
        twice = c.copy().compose(c)
        assert np.allclose(twice.unitary(), np.eye(2))
        thrice = twice.compose(c)
        assert [g.name for g in thrice.ops] == ["x"] * 3
        assert thrice.name == "x" and len(c) == 1  # ``other`` is untouched

    def test_remap_to_larger_register(self):
        c = Circuit(2).cx(0, 1)
        big = c.remap({0: 4, 1: 2}, num_qubits=6)
        assert big.num_qubits == 6
        assert big.ops[0].qubits == (4, 2)

    def test_serialization_roundtrip(self):
        c = Circuit(3, "test").h(0).rzz(0.5, 0, 2).measure(1)
        c.metadata["tag"] = "x"
        c2 = Circuit.from_dict(c.to_dict())
        assert c2 == c
        assert c2.metadata["tag"] == "x"

    def test_without_measurements(self):
        c = Circuit(2).h(0).measure_all()
        assert len(c.without_measurements()) == 1

    def test_measures_keep_their_call_order(self):
        c = Circuit(3).measure(2).measure(0)
        assert [(g.name, g.qubits) for g in c.ops] == [
            ("measure", (2,)), ("measure", (0,)),
        ]

    def test_project_builder(self):
        c = Circuit(1).project(1, 0)
        assert c.ops[0].name == "project"
        with pytest.raises(ValueError):
            Circuit(1).project(2, 0)


class TestMetrics:
    def test_basic_counts(self):
        c = Circuit(3).h(0).cx(0, 1).cx(1, 2).measure_all()
        m = compute_metrics(c)
        assert m.num_qubits == 3
        assert m.num_1q_gates == 1
        assert m.num_2q_gates == 2
        assert m.num_measurements == 3

    def test_routing_class_linear(self):
        c = Circuit(4).cx(0, 1).cx(1, 2).cx(2, 3)
        assert compute_metrics(c).routing_class == "linear"

    def test_routing_class_dense(self):
        c = Circuit(6)
        for i in range(6):
            for j in range(i + 1, 6):
                c.cx(i, j)
        assert compute_metrics(c).routing_class == "dense"

    def test_parallelism(self):
        c = Circuit(2).h(0).h(1)
        assert compute_metrics(c).parallelism == pytest.approx(2.0)


# ----------------------------------------------------------------------
# the fused pass == the six-walk reference
# ----------------------------------------------------------------------

_UNITARY_1Q = ["h", "x", "sx", "t"]
_UNITARY_2Q = ["cx", "cz", "swap", "ecr"]


@st.composite
def op_lists(draw, max_qubits=6, max_ops=40):
    """Circuits over every op kind ``Circuit.depth`` treats specially:
    empty and listed barriers, delay / reset / project, mid-circuit
    measure, repeated edges (both orientations) — and no ops at all."""
    n = draw(st.integers(1, max_qubits))
    circ = Circuit(n)
    wire = st.integers(0, n - 1)
    for _ in range(draw(st.integers(0, max_ops))):
        kind = draw(st.integers(0, 7))
        if kind == 0:
            circ.add(draw(st.sampled_from(_UNITARY_1Q)), [draw(wire)])
        elif kind == 1:
            circ.rz(0.25, draw(wire))
        elif kind == 2 and n >= 2:
            a, b = draw(st.permutations(range(n)))[:2]
            circ.add(draw(st.sampled_from(_UNITARY_2Q)), [a, b])
        elif kind == 3 and n >= 2:
            a, b = draw(st.permutations(range(n)))[:2]
            circ.rzz(0.5, a, b)
        elif kind == 4:
            circ.barrier()
        elif kind == 5:
            circ.barrier(*draw(st.sets(wire, min_size=1)))
        elif kind == 6:
            circ.measure(draw(wire))
        else:
            q = draw(wire)
            draw(st.sampled_from([
                lambda: circ.delay(40.0, q),
                lambda: circ.reset(q),
                lambda: circ.project(1, q),
            ]))()
    return circ


class TestFusedMetricsPass:
    @given(op_lists())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_reference_on_random_op_lists(self, circ):
        assert compute_metrics(circ) == compute_metrics_reference(circ)

    @given(op_lists())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_writer_matches_reference_on_random_op_lists(self, circ):
        writer = MetricsWriter(circ.num_qubits)
        for g in circ:
            if g.name == "barrier":
                writer.barrier(*g.qubits)
            else:
                writer.add(g.name, g.qubits, *g.params)
        assert writer.metrics() == compute_metrics_reference(circ)

    @given(op_lists())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_fingerprint_is_the_structural_tuple(self, circ):
        """The content address is every structural metric but the
        (derived) parallelism, in declaration order."""
        m = compute_metrics(circ)
        assert m.fingerprint == (
            m.num_qubits,
            m.depth,
            m.two_qubit_depth,
            m.size,
            m.num_1q_gates,
            m.num_2q_gates,
            m.num_measurements,
            m.max_interaction_degree,
        )
        assert type(m.fingerprint) is tuple
        assert m.fingerprint is m.fingerprint  # built on first read

    def test_empty_circuit(self):
        m = compute_metrics(Circuit(3))
        assert m == compute_metrics_reference(Circuit(3))
        assert (m.depth, m.size, m.parallelism) == (0, 0, 0.0)

    def test_barriers_and_pseudo_ops_weigh_like_depth(self):
        c = Circuit(3).h(0).h(0).barrier(0, 1).cx(1, 2).barrier()
        c.delay(10.0, 0).reset(1).project(0, 2).measure(0).cx(1, 0).cx(0, 1)
        m = compute_metrics(c)
        assert m == compute_metrics_reference(c)
        assert m.depth == c.depth() == 7
        assert m.two_qubit_depth == c.depth(two_qubit_only=True) == 3
        # cx(1, 0) and cx(0, 1) are one edge of the interaction graph.
        assert (m.num_2q_gates, m.max_interaction_degree) == (3, 2)

    def test_every_non_barrier_op_is_one_or_two_wires(self):
        # The pass branches on this; a wider gate needs a third arm.
        assert {
            spec.num_qubits for name, spec in GATE_SPECS.items() if name != "barrier"
        } == {1, 2}


class TestMetricsWriter:
    """The metrics sink refuses exactly what ``Circuit.add`` refuses."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda c: c.add("nope", [0]),
            lambda c: c.add("cx", [0]),
            lambda c: c.add("rz", [0]),
            lambda c: c.add("h", [0], 0.5),
            lambda c: c.add("cx", [1, 1]),
            lambda c: c.add("h", [3]),
            lambda c: c.add("cx", [0, -1]),
            lambda c: c.add("h", [1.7]),
            lambda c: c.barrier(0, 4),
        ],
        ids=[
            "unknown", "wires", "too_few_params", "too_many_params",
            "duplicate", "out_of_range", "negative", "float", "barrier_range",
        ],
    )
    def test_refusals_match_circuit_add(self, build):
        refusals = []
        for sink in (Circuit, MetricsWriter):
            with pytest.raises((TypeError, ValueError)) as info:
                build(sink(3))
            refusals.append((type(info.value), str(info.value)))
        assert refusals[0] == refusals[1]
