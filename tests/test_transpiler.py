"""Transpiler tests: decomposition exactness, layout, routing, scheduling."""

import numpy as np
import pytest

from repro.circuits import Circuit, Gate, gate_matrix
from repro.simulation import NoiseModel, hellinger_fidelity, ideal_probabilities
from repro.transpiler import (
    Target,
    decompose_circuit,
    decompose_to_basis,
    fuse_1q_runs,
    linear_path_layout,
    noise_aware_layout,
    route,
    schedule_circuit,
    transpile,
    trivial_layout,
    u_to_basis_ops,
    zyz_angles,
)
from repro.transpiler.layout import Layout
from repro.transpiler.routing import hop_distances, neighbour_lists
from repro.workloads import ghz_linear, qft, real_amplitudes


def _equal_up_to_phase(a: np.ndarray, b: np.ndarray, atol=1e-8) -> bool:
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[idx]) < 1e-12:
        return np.allclose(a, b, atol=atol)
    scale = a[idx] / b[idx]
    return np.allclose(a, scale * b, atol=atol)


LINE4 = [(0, 1), (1, 2), (2, 3)]


def _line_target(n: int) -> Target:
    edges = [(i, i + 1) for i in range(n - 1)]
    return Target(
        num_qubits=n,
        coupling=tuple(edges),
        basis_gates=("rz", "sx", "x", "cx"),
        noise_model=NoiseModel.uniform(n, edges=edges),
    )


class TestDecomposition:
    @pytest.mark.parametrize(
        "name", ["h", "x", "y", "z", "s", "sdg", "t", "tdg", "sx", "sxdg"]
    )
    def test_1q_constants_exact(self, name):
        ops = decompose_to_basis(Gate(name, (0,)))
        mat = np.eye(2, dtype=complex)
        for g in ops:
            mat = g.matrix() @ mat
        assert _equal_up_to_phase(mat, gate_matrix(name))

    @pytest.mark.parametrize("angle", [0.0, 0.3, np.pi / 2, np.pi, 5.1])
    @pytest.mark.parametrize("name", ["rx", "ry", "p"])
    def test_1q_parametric_exact(self, name, angle):
        ops = decompose_to_basis(Gate(name, (0,), (angle,)))
        mat = np.eye(2, dtype=complex)
        for g in ops:
            mat = g.matrix() @ mat
        assert _equal_up_to_phase(mat, gate_matrix(name, angle))

    @pytest.mark.parametrize("name", ["cz", "swap", "rzz", "rxx", "cp", "crz"])
    def test_2q_rules_exact(self, name):
        params = (0.7,) if name in ("rzz", "rxx", "cp", "crz") else ()
        gate = Gate(name, (0, 1), params)
        circ = Circuit(2).append(gate)
        dec = decompose_circuit(circ)
        assert _equal_up_to_phase(dec.unitary(), circ.unitary())
        assert all(g.name in ("rz", "sx", "x", "cx") for g in dec.gates)

    def test_zyz_roundtrip_random(self):
        rng = np.random.default_rng(5)
        from scipy.stats import unitary_group

        for _ in range(20):
            u = unitary_group.rvs(2, random_state=rng)
            theta, phi, lam = zyz_angles(u)
            ops = u_to_basis_ops(theta, phi, lam, 0)
            mat = np.eye(2, dtype=complex)
            for g in ops:
                mat = g.matrix() @ mat
            assert _equal_up_to_phase(mat, u)

    def test_fuse_1q_runs_reduces_and_preserves(self):
        c = Circuit(2).h(0).t(0).s(0).h(0).cx(0, 1).h(1).h(1)
        fused = fuse_1q_runs(decompose_circuit(c))
        assert _equal_up_to_phase(fused.unitary(), c.unitary())
        assert len(fused.gates) <= len(decompose_circuit(c).gates)

    def test_fused_identity_run_vanishes(self):
        c = Circuit(1).h(0).h(0)
        fused = fuse_1q_runs(c)
        assert len(fused.gates) == 0


class TestLayout:
    def test_trivial(self):
        lay = trivial_layout(Circuit(3).h(0), 5)
        assert lay.logical_to_physical == {0: 0, 1: 1, 2: 2}

    def test_trivial_too_wide(self):
        with pytest.raises(ValueError):
            trivial_layout(Circuit(6).h(0), 3)

    def test_layout_injective_enforced(self):
        with pytest.raises(ValueError):
            Layout({0: 1, 1: 1}, 3)

    def test_noise_aware_picks_valid_region(self):
        nm = NoiseModel.uniform(4, edges=LINE4)
        circ = Circuit(3).cx(0, 1).cx(1, 2)
        lay = noise_aware_layout(circ, LINE4, nm, 4)
        phys = set(lay.logical_to_physical.values())
        assert len(phys) == 3

    def test_linear_path_layout_for_chain(self):
        nm = NoiseModel.uniform(4, edges=LINE4)
        circ = Circuit(3).cx(0, 1).cx(1, 2)
        lay = linear_path_layout(circ, LINE4, nm, 4)
        assert lay is not None
        # Consecutive chain qubits land on coupled physical qubits.
        p = lay.logical_to_physical
        coupled = {tuple(sorted(e)) for e in LINE4}
        assert tuple(sorted((p[0], p[1]))) in coupled
        assert tuple(sorted((p[1], p[2]))) in coupled

    def test_linear_path_layout_rejects_star(self):
        nm = NoiseModel.uniform(5, edges=[(i, i + 1) for i in range(4)])
        star = Circuit(4).cx(0, 1).cx(0, 2).cx(0, 3)
        assert (
            linear_path_layout(star, [(i, i + 1) for i in range(4)], nm, 5) is None
        )


class TestRouting:
    def test_no_swaps_when_adjacent(self):
        c = Circuit(3).cx(0, 1).cx(1, 2)
        routed = route(c, LINE4, 4)
        assert routed.num_swaps == 0

    def test_swaps_inserted_for_distant(self):
        c = Circuit(4).cx(0, 3)
        routed = route(c, LINE4, 4)
        assert routed.num_swaps >= 1
        # Every 2q gate in the output must be on a coupled pair.
        coupled = {tuple(sorted(e)) for e in LINE4}
        for g in routed.circuit.ops:
            if g.is_unitary and g.num_qubits == 2:
                assert tuple(sorted(g.qubits)) in coupled

    def test_routing_preserves_semantics(self):
        c = qft(4, measure=False)
        routed = route(c, LINE4, 4)
        # Apply the inverse of the tracked permutation and compare states.
        p_orig = ideal_probabilities(c)
        p_routed = ideal_probabilities(routed.circuit)
        fm = routed.final_mapping
        remapped = np.zeros_like(p_routed)
        for idx in range(len(p_routed)):
            logical = 0
            for q in range(4):
                logical |= ((idx >> fm[q]) & 1) << q
            remapped[logical] += p_routed[idx]
        assert hellinger_fidelity(remapped, p_orig) == pytest.approx(1.0, abs=1e-9)

    def test_disconnected_raises(self):
        with pytest.raises(ValueError, match="disconnected"):
            route(Circuit(4).cx(0, 3), [(0, 1), (2, 3)], 4)

    def test_hop_distances(self):
        d = hop_distances(neighbour_lists(LINE4, 4))
        assert d[0][3] == 3 and d[1][2] == 1 and d[2][2] == 0


class TestScheduling:
    def test_schedule_durations(self):
        nm = NoiseModel.uniform(2, duration_1q_ns=50, duration_2q_ns=300)
        c = Circuit(2).sx(0).cx(0, 1).measure_all()
        sched = schedule_circuit(c, nm)
        assert sched.duration_ns == pytest.approx(50 + 300 + nm.readout_duration_ns)

    def test_parallel_ops_overlap(self):
        nm = NoiseModel.uniform(4, duration_2q_ns=300)
        c = Circuit(4).cx(0, 1).cx(2, 3)
        assert schedule_circuit(c, nm).duration_ns == pytest.approx(300)

    def test_delay_respected(self):
        nm = NoiseModel.uniform(1)
        c = Circuit(1).delay(500.0, 0).sx(0)
        sched = schedule_circuit(c, nm)
        sx_op = [o for o in sched.ops if o.name == "sx"][0]
        assert sx_op.start_ns == pytest.approx(500.0)


class TestTranspile:
    def test_output_in_basis(self):
        target = _line_target(5)
        res = transpile(qft(4, measure=True), target)
        for g in res.circuit.ops:
            if g.is_unitary:
                assert g.name in target.basis_gates

    def test_too_wide_raises(self):
        with pytest.raises(ValueError):
            transpile(Circuit(8).h(0), _line_target(4))

    def test_semantics_preserved_via_mapping(self):
        target = _line_target(6)
        c = qft(5, measure=False)
        res = transpile(c, target)
        p_phys = ideal_probabilities(res.circuit)
        p_ideal = ideal_probabilities(c)
        fm = res.final_mapping
        remapped = np.zeros(2**5)
        for idx in range(2**6):
            logical = 0
            for q in range(5):
                logical |= ((idx >> fm[q]) & 1) << q
            remapped[logical] += p_phys[idx]
        assert hellinger_fidelity(remapped, p_ideal) == pytest.approx(1.0, abs=1e-9)

    def test_linear_ansatz_routes_swap_free(self):
        res = transpile(
            real_amplitudes(5, reps=2), _line_target(6)
        )
        assert res.num_swaps == 0

    def test_metrics_and_schedule_populated(self):
        res = transpile(ghz_linear(4), _line_target(5))
        assert res.metrics.num_2q_gates >= 3
        assert res.duration_ns > 0

    def test_target_from_backend(self):
        from repro.backends import default_fleet

        qpu = default_fleet(seed=1, names=["lagos"])[0]
        target = Target.from_backend(qpu)
        assert target.num_qubits == 7
        res = transpile(ghz_linear(4), target)
        assert res.circuit.num_qubits == 7
