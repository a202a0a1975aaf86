"""Error-mitigation tests: each technique must (1) preserve circuit
semantics where applicable and (2) demonstrably improve noisy fidelity."""

import re

import numpy as np
import pytest

from helpers.noise import uniform_noise
from helpers.reference_readout import full_confusion_matrix
from repro.circuits import Circuit, gate_matrix
from repro.mitigation import (
    CX_TWIRL_SET,
    DEFAULT_NOISE_FACTORS,
    TWIRL_INSTANCES,
    MitigationStack,
    cut_circuit,
    fold_gates,
    fold_global,
    fold_to_factor,
    insert_dd,
    knit,
    mitigate_probs,
    pauli_twirl,
    twirl_ensemble,
    zne_expand,
    zne_infer_probs,
)
from repro.mitigation.rem import _simplex_project
from repro.simulation import (
    NoiseModel,
    NoisySimulator,
    QubitNoise,
    apply_readout_noise_probs,
    hellinger_fidelity,
    ideal_probabilities,
    simulate_statevector,
)
from repro.workloads import clustered_circuit, ghz_linear


def _equal_up_to_phase(a, b, atol=1e-8):
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    scale = a[idx] / b[idx]
    return np.allclose(a, scale * b, atol=atol)


class TestFolding:
    def test_global_fold_preserves_unitary(self):
        c = Circuit(2).h(0).cx(0, 1).t(1)
        folded = fold_global(c, 1)
        assert _equal_up_to_phase(folded.unitary(), c.unitary())
        assert len(folded.gates) == 3 * len(c.gates)

    def test_gate_fold_preserves_unitary(self):
        c = Circuit(2).h(0).cx(0, 1)
        folded = fold_gates(c, [1])
        assert _equal_up_to_phase(folded.unitary(), c.unitary())
        assert len(folded.gates) == 4

    def test_fold_to_factor_scales_gate_count(self):
        c = ghz_linear(4).without_measurements()
        n0 = len(c.gates)
        f3 = fold_to_factor(c, 3.0)
        assert len(f3.gates) == pytest.approx(3 * n0, abs=2)
        f2 = fold_to_factor(c, 2.0)
        assert n0 < len(f2.gates) < len(f3.gates)

    def test_fold_invalid_factor(self):
        with pytest.raises(ValueError):
            fold_to_factor(Circuit(1).x(0), 0.5)

    def test_fold_keeps_measurements_last(self):
        c = ghz_linear(3)
        folded = fold_global(c, 1)
        assert folded.ops[-1].name == "measure"


class TestZNE:
    def test_expand_counts_and_scales(self):
        c = ghz_linear(3)
        instances = zne_expand(c)
        assert [i.metadata["zne_scale"] for i in instances] == [1.0, 3.0, 5.0]
        assert instances[0].ops == c.ops
        sizes = [len(i.gates) for i in instances]
        assert sizes[0] < sizes[1] < sizes[2]

    def test_infer_probs_is_distribution(self):
        p1 = np.array([0.7, 0.3])
        p3 = np.array([0.6, 0.4])
        p5 = np.array([0.5, 0.5])
        out = zne_infer_probs([1, 3, 5], [p1, p3, p5])
        assert out.sum() == pytest.approx(1.0)
        assert out[0] > 0.7  # extrapolates beyond the least-noisy point

    def test_zne_improves_noisy_ghz(self):
        nm = uniform_noise(4, error_2q=0.03, readout_error=0.0)
        sim = NoisySimulator(nm, num_trajectories=120, seed=7)
        c = ghz_linear(4)
        ideal = ideal_probabilities(c)
        probs = [sim.noisy_probabilities(inst) for inst in zne_expand(c)]
        raw_fid = hellinger_fidelity(probs[0], ideal)
        mit_fid = hellinger_fidelity(
            zne_infer_probs(list(DEFAULT_NOISE_FACTORS), probs), ideal
        )
        assert mit_fid > raw_fid

    @pytest.mark.parametrize("factors", [(1.0, 1.0), (3.0,), (3.0, 3.0, 3.0)])
    def test_fewer_than_two_distinct_factors_refused(self, factors):
        # A line through one abscissa is undefined: the fit would divide by
        # zero and return an all-NaN distribution.
        probs = [np.array([0.6, 0.4])] * len(factors)
        match = re.escape(str(list(factors)))
        with pytest.raises(ValueError, match=match):
            zne_infer_probs(list(factors), probs)

    @pytest.mark.parametrize(
        "factors", [(1.0, 3.0, 5.0), (1.0, 2.0), (1.0, 1.5, 2.0, 3.5), (5.0, 1.0, 3.0)]
    )
    @pytest.mark.parametrize("exact", [True, False])
    def test_infer_probs_is_the_per_state_linear_fit(self, factors, exact):
        """Held to a per-state least-squares line (``np.polyfit``, degree
        1) read at zero noise, clipped and renormalized."""
        rng = np.random.default_rng(len(factors) + 10 * exact)
        x = np.asarray(factors)
        for _ in range(20):
            dim = 2 ** int(rng.integers(1, 5))
            zero = rng.dirichlet(np.ones(dim))
            drift = rng.normal(0.0, 0.02, dim)
            ys = zero + np.outer(x, drift - drift.mean())
            if not exact:
                ys = ys + rng.normal(0.0, 0.01, ys.shape)
            ref = np.array(
                [np.polyval(np.polyfit(x, ys[:, i], 1), 0.0) for i in range(dim)]
            )
            ref = np.clip(ref, 0.0, None)
            out = zne_infer_probs(list(factors), list(ys))
            if ref.sum() <= 0:
                np.testing.assert_array_equal(out, ys[0])
                continue
            np.testing.assert_allclose(out, ref / ref.sum(), rtol=0, atol=1e-12)
            if exact and np.all(zero > 1e-9):
                np.testing.assert_allclose(out, zero, rtol=0, atol=1e-12)


class TestREM:
    def test_tensored_inversion_recovers_ideal(self):
        nm = uniform_noise(3, readout_error=0.08)
        c = ghz_linear(3)
        ideal = ideal_probabilities(c)
        noisy = apply_readout_noise_probs(ideal, nm, 3)
        recovered = mitigate_probs(noisy, nm, 3)
        assert hellinger_fidelity(recovered, ideal) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
    def test_tensored_equals_dense_pseudo_inverse(self, num_qubits):
        """Per-qubit inverses equal the dense pseudo-inverse of the whole
        tensor-product confusion matrix, simplex-projected."""
        rng = np.random.default_rng(num_qubits)
        for _ in range(10):
            nm = NoiseModel.uniform(num_qubits)
            for q in range(num_qubits):
                nm.qubits[q] = QubitNoise(150.0, 110.0, *rng.uniform(0.0, 0.2, 2))
            probs = rng.dirichlet(np.ones(2**num_qubits))
            dense = full_confusion_matrix(nm, list(range(num_qubits)))
            expected = _simplex_project(np.linalg.pinv(dense) @ probs)
            np.testing.assert_allclose(
                mitigate_probs(probs, nm, num_qubits), expected, rtol=0, atol=1e-12
            )


class TestDD:
    def test_insertion_only_in_long_idles(self):
        nm = NoiseModel.uniform(3)
        c = Circuit(3).cx(0, 1).cx(1, 2).cx(0, 1).measure_all()
        out = insert_dd(c, nm)
        assert out.metadata["dd_sequence"] == "XpXm"
        assert out.metadata["dd_pulses_inserted"] > 0
        assert sum(g.name == "x" for g in out.ops) >= 2

    def test_dd_preserves_semantics(self):
        nm = NoiseModel.uniform(3)
        c = Circuit(3).h(0).cx(0, 1).cx(1, 2)
        out = insert_dd(c, nm)
        p1 = ideal_probabilities(c)
        p2 = ideal_probabilities(out)
        assert hellinger_fidelity(p1, p2) == pytest.approx(1.0, abs=1e-9)

    def test_dd_improves_idle_heavy_circuit(self):
        """DD must refocus quasi-static dephasing mechanistically."""
        nm = uniform_noise(3, t1_us=200.0, t2_us=20.0, error_1q=1e-5,
                                error_2q=1e-4, readout_error=0.0)
        # A circuit with a long idle on qubit 0 between two interactions.
        c = Circuit(3).h(0).cx(0, 1).cx(1, 2).cx(1, 2).cx(1, 2).cx(0, 1).h(0)
        c.measure(0)
        ideal = ideal_probabilities(c)
        plain_fid = hellinger_fidelity(
            NoisySimulator(nm, num_trajectories=150, seed=3).noisy_probabilities(c),
            ideal,
        )
        dd_circ = insert_dd(c, nm)
        dd_fid = hellinger_fidelity(
            NoisySimulator(nm, num_trajectories=150, seed=3).noisy_probabilities(
                dd_circ
            ),
            ideal,
        )
        assert dd_fid > plain_fid


class TestTwirling:
    def test_all_sandwiches_preserve_cx(self):
        ref = Circuit(2).cx(0, 1).unitary()
        for pc, pt, qc, qt in CX_TWIRL_SET:
            c = Circuit(2)
            for name, q in ((pc, 0), (pt, 1)):
                if name != "id":
                    c.add(name, [q])
            c.cx(0, 1)
            for name, q in ((qc, 0), (qt, 1)):
                if name != "id":
                    c.add(name, [q])
            assert _equal_up_to_phase(c.unitary(), ref)

    def test_twirled_circuit_same_distribution(self):
        c = ghz_linear(3).without_measurements()
        rng = np.random.default_rng(3)
        tw = pauli_twirl(c, rng)
        assert hellinger_fidelity(
            ideal_probabilities(tw), ideal_probabilities(c)
        ) == pytest.approx(1.0, abs=1e-9)

    def test_ensemble_size_and_seed(self):
        ens = twirl_ensemble(ghz_linear(3), seed=1)
        assert len(ens) == TWIRL_INSTANCES
        rng = np.random.default_rng(1)
        assert [c.ops for c in ens] == [
            pauli_twirl(ghz_linear(3), rng).ops for _ in range(TWIRL_INSTANCES)
        ]


class TestCutting:
    def test_qpd_channel_identity(self):
        """The hard-coded CZ QPD must reproduce the CZ channel exactly."""
        import itertools

        def sop(k):
            return np.kron(k, k.conj())

        I2 = np.eye(2)
        Z = gate_matrix("z")
        S = gate_matrix("s")
        Sdg = gate_matrix("sdg")
        P0 = np.diag([1.0, 0.0]).astype(complex)
        P1 = np.diag([0.0, 1.0]).astype(complex)
        mats = {"id": I2, "z": Z, "s": S, "sdg": Sdg, "p0": P0, "p1": P1}
        from repro.mitigation.cutting import CZ_QPD_TERMS

        total = np.zeros((16, 16), dtype=complex)
        for coeff, a, b in CZ_QPD_TERMS:
            total += coeff * sop(np.kron(mats[a], mats[b]))
        cz = np.diag([1, 1, 1, -1]).astype(complex)
        assert np.allclose(total, sop(cz), atol=1e-12)

    def test_qpd_channels_sum_to_gamma_three(self):
        """The ten terms are six channels: each Z-measured channel's
        ``p1`` branch is its ``p0`` branch with the outcome sign, and the
        channels' one-norm is gamma = 3 (9**k times the shots for k cuts)."""
        from repro.mitigation.cutting import CZ_QPD_TERMS

        channels = {}
        for coeff, a, b in CZ_QPD_TERMS:
            key = tuple("mz" if op in ("p0", "p1") else op for op in (a, b))
            sign = -1.0 if "p1" in (a, b) else 1.0
            channels.setdefault(key, set()).add(coeff * sign)
        assert len(channels) == 6
        assert all(len(signed) == 1 for signed in channels.values())
        assert sum(abs(c) for (c,) in channels.values()) == 3.0

    def test_exact_reconstruction_ideal(self):
        c = clustered_circuit(6, 2, num_clusters=2, bridge_gates=1, measure=False, seed=5)
        parts = c.metadata["clusters"]
        plan = cut_circuit(c, parts[0], parts[1])
        assert plan.num_variants == 10
        pa = [np.abs(simulate_statevector(v)) ** 2 for v in plan.variants_a]
        pb = [np.abs(simulate_statevector(v)) ** 2 for v in plan.variants_b]
        full, _ = knit(plan, pa, pb)
        assert hellinger_fidelity(full, ideal_probabilities(c)) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_two_cuts_reconstruction(self):
        c = clustered_circuit(6, 2, num_clusters=2, bridge_gates=2, measure=False, seed=8)
        parts = c.metadata["clusters"]
        plan = cut_circuit(c, parts[0], parts[1])
        assert plan.num_variants == 100
        pa = [np.abs(simulate_statevector(v)) ** 2 for v in plan.variants_a]
        pb = [np.abs(simulate_statevector(v)) ** 2 for v in plan.variants_b]
        full, _ = knit(plan, pa, pb)
        assert hellinger_fidelity(full, ideal_probabilities(c)) == pytest.approx(
            1.0, abs=1e-8
        )

    def test_non_cz_bridge_rejected(self):
        c = Circuit(4).cx(0, 2)
        with pytest.raises(ValueError, match="not a CZ"):
            cut_circuit(c, [0, 1], [2, 3])

    def test_partition_validation(self):
        c = Circuit(4).cz(0, 2)
        with pytest.raises(ValueError, match="overlap"):
            cut_circuit(c, [0, 1], [1, 2, 3])
        with pytest.raises(ValueError, match="cover"):
            cut_circuit(c, [0, 1], [2])


class TestStack:
    def test_preset_validation(self):
        with pytest.raises(KeyError):
            MitigationStack.preset("nope")
        with pytest.raises(ValueError, match="bogus"):
            MitigationStack(("bogus",))

    def test_overheads(self):
        stack = MitigationStack.preset("dd+twirl+zne+rem")
        assert stack.shot_overhead == 12.0  # 3 ZNE factors x 4 twirls
        assert stack.classical_overhead > 1.0

    def test_expand_post_process_shapes(self):
        nm = uniform_noise(3, error_2q=0.02, readout_error=0.04)
        stack = MitigationStack.preset("zne+rem")
        c = ghz_linear(3)
        plan = stack.expand(c, nm)
        assert len(plan.instances) == 3
        sim = NoisySimulator(nm, num_trajectories=20, seed=1)
        probs = [sim.noisy_probabilities(i) for i in plan.instances]
        out = stack.post_process(plan, probs, nm, 3)
        assert out.sum() == pytest.approx(1.0)

    def test_full_stack_beats_no_mitigation(self):
        nm = uniform_noise(
            4, error_2q=0.02, readout_error=0.04, t1_us=80, t2_us=50
        )
        sim = NoisySimulator(nm, num_trajectories=60, seed=3)
        c = ghz_linear(4)
        ideal = ideal_probabilities(c)

        def run(preset):
            stack = MitigationStack.preset(preset)
            plan = stack.expand(c, nm)
            probs = [sim.noisy_probabilities(i) for i in plan.instances]
            return hellinger_fidelity(
                stack.post_process(plan, probs, nm, 4), ideal
            )

        assert run("dd+zne+rem") > run("none") + 0.05

    def test_result_count_mismatch(self):
        nm = NoiseModel.uniform(2)
        stack = MitigationStack.preset("zne")
        plan = stack.expand(ghz_linear(2), nm)
        with pytest.raises(ValueError):
            stack.post_process(plan, [np.ones(4) / 4], nm, 2)
