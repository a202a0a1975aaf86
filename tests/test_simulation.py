"""Tests for the simulation substrate: statevector, noise, trajectories,
readout, distribution metrics, and the analytic ESP model."""

import math

import numpy as np
import pytest

from helpers.noise import uniform_noise
from helpers.reference_readout import full_confusion_matrix
from repro.circuits import Circuit
from repro.simulation import (
    NoiseModel,
    NoisySimulator,
    QubitNoise,
    GateNoise,
    apply_readout_noise_probs,
    circuit_duration_ns,
    esp,
    esp_components,
    esp_to_hellinger,
    hellinger_fidelity,
    ideal_probabilities,
    probs_to_vector,
    sample_counts,
    simulate_statevector,
    zero_state,
)
from repro.workloads import ghz, ghz_linear


class TestStatevector:
    def test_zero_state(self):
        s = zero_state(3)
        assert s[0] == 1.0 and np.sum(np.abs(s)) == 1.0

    def test_too_wide_raises(self):
        with pytest.raises(ValueError):
            zero_state(30)

    def test_bell_state(self):
        p = ideal_probabilities(Circuit(2).h(0).cx(0, 1))
        assert p[0] == pytest.approx(0.5) and p[3] == pytest.approx(0.5)

    def test_qubit_order_little_endian(self):
        # X on qubit 0 flips the least-significant bit of the index.
        p = ideal_probabilities(Circuit(2).x(0))
        assert p[1] == pytest.approx(1.0)

    def test_three_qubit_gate_application_order(self):
        # cx(2, 0): control qubit 2, target qubit 0.
        c = Circuit(3).x(2).cx(2, 0)
        p = ideal_probabilities(c)
        assert p[0b101] == pytest.approx(1.0)

    def test_reset_projects(self):
        c = Circuit(1).x(0).reset(0)
        state = simulate_statevector(c)
        assert abs(state[0]) == pytest.approx(1.0)

    def test_project_is_unnormalized(self):
        c = Circuit(1).h(0).project(0, 0)
        state = simulate_statevector(c)
        assert np.sum(np.abs(state) ** 2) == pytest.approx(0.5)

    def test_sample_counts_total(self):
        rng = np.random.default_rng(0)
        counts = sample_counts(np.array([0.5, 0.5]), 1000, rng, 1)
        assert sum(counts.values()) == 1000

    def test_sample_counts_put_qubit_zero_rightmost(self):
        probs = ideal_probabilities(Circuit(3).x(1))
        counts = sample_counts(probs, 100, np.random.default_rng(0), 3)
        assert counts == {"010": 100}

    def test_sample_counts_zero_vector_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_counts(np.zeros(4), 10, rng, 2)


class TestDistributions:
    def test_hellinger_identical(self):
        p = np.array([0.25, 0.75])
        assert hellinger_fidelity(p, p) == pytest.approx(1.0)

    def test_hellinger_disjoint(self):
        assert hellinger_fidelity([1, 0], [0, 1]) == pytest.approx(0.0)

    def test_hellinger_accepts_counts_dicts(self):
        f = hellinger_fidelity({"00": 500, "11": 500}, {"00": 1, "11": 1})
        assert f == pytest.approx(1.0)

    def test_hellinger_partial_overlap(self):
        # Counts of different totals normalize first: (2 sqrt(3/16))^2.
        f = hellinger_fidelity({"0": 30, "1": 10}, {"0": 1, "1": 3})
        assert f == pytest.approx(0.75)

    def test_probs_to_vector_indexes_by_bitstring(self):
        vec = probs_to_vector({"10": 0.25, "01": 0.75}, 2)
        assert vec.tolist() == [0.0, 0.75, 0.25, 0.0]

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            hellinger_fidelity(np.ones(2) / 2, np.ones(4) / 4)


class TestNoiseModel:
    def test_uniform_construction(self):
        nm = uniform_noise(4, error_2q=0.01)
        assert nm.num_qubits == 4
        assert nm.gate_noise("cx", (0, 1)).error == pytest.approx(0.01)

    def test_rz_is_free(self):
        nm = NoiseModel.uniform(2)
        gn = nm.gate_noise("rz", (0,))
        assert gn.error == 0.0 and gn.duration_ns == 0.0

    def test_invalid_qubit_noise(self):
        with pytest.raises(ValueError):
            QubitNoise(t1_us=-1, t2_us=10, readout_p01=0, readout_p10=0)
        with pytest.raises(ValueError):
            QubitNoise(t1_us=10, t2_us=10, readout_p01=1.5, readout_p10=0)

    def test_invalid_gate_noise(self):
        with pytest.raises(ValueError):
            GateNoise(error=1.5, duration_ns=10)

    def test_decoherence_probs_monotone_in_time(self):
        nm = uniform_noise(1, t1_us=100, t2_us=80)
        p1 = nm.decoherence_probs(0, 100.0)
        p2 = nm.decoherence_probs(0, 1000.0)
        assert p2[0] > p1[0] and p2[1] >= p1[1]

    def test_confusion_matrix_columns_sum_to_one(self):
        nm = uniform_noise(1, readout_error=0.05)
        conf = nm.confusion_matrix(0)
        assert np.allclose(conf.sum(axis=0), 1.0)

    def test_scaled_increases_errors(self):
        nm = uniform_noise(2, error_2q=0.01)
        scaled = nm.scaled(3.0)
        assert scaled.gate_noise("cx", (0, 1)).error == pytest.approx(0.03)
        assert scaled.qubits[0].t1_us < nm.qubits[0].t1_us


class TestReadout:
    def test_forward_noise_preserves_total(self):
        nm = uniform_noise(3, readout_error=0.05)
        probs = ideal_probabilities(ghz(3).without_measurements())
        noisy = apply_readout_noise_probs(probs, nm, 3)
        assert noisy.sum() == pytest.approx(1.0)
        assert hellinger_fidelity(noisy, probs) < 1.0

    def test_full_confusion_matrix_stochastic(self):
        nm = uniform_noise(2, readout_error=0.03)
        mat = full_confusion_matrix(nm, [0, 1])
        assert mat.shape == (4, 4)
        assert np.allclose(mat.sum(axis=0), 1.0)

    def test_full_confusion_too_wide(self):
        nm = NoiseModel.uniform(13)
        with pytest.raises(ValueError):
            full_confusion_matrix(nm, list(range(13)))


class TestTrajectorySimulator:
    def test_noiseless_limit_matches_ideal(self):
        nm = uniform_noise(
            3, error_1q=0.0, error_2q=0.0, readout_error=0.0,
            t1_us=1e9, t2_us=1e9,
        )
        sim = NoisySimulator(nm, num_trajectories=3, seed=0)
        c = ghz(3)
        probs = sim.noisy_probabilities(c)
        assert hellinger_fidelity(probs, ideal_probabilities(c)) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_noise_reduces_fidelity(self):
        nm = uniform_noise(3, error_2q=0.05, readout_error=0.05)
        sim = NoisySimulator(nm, num_trajectories=40, seed=1)
        c = ghz_linear(3)
        fid = hellinger_fidelity(
            sim.noisy_probabilities(c), ideal_probabilities(c)
        )
        assert 0.3 < fid < 0.98

    def test_more_noise_less_fidelity(self):
        c = ghz_linear(4)
        ideal = ideal_probabilities(c)
        fids = []
        for err in (0.005, 0.08):
            nm = uniform_noise(4, error_2q=err, readout_error=err)
            sim = NoisySimulator(nm, num_trajectories=60, seed=2)
            fids.append(hellinger_fidelity(sim.noisy_probabilities(c), ideal))
        assert fids[0] > fids[1]

    def test_run_returns_counts(self):
        nm = NoiseModel.uniform(2)
        res = NoisySimulator(nm, num_trajectories=5, seed=0).run(
            Circuit(2).h(0).cx(0, 1).measure_all(), shots=256
        )
        assert sum(res.counts.values()) == 256
        assert res.num_qubits == 2

    def test_circuit_wider_than_backend_raises(self):
        nm = NoiseModel.uniform(2)
        sim = NoisySimulator(nm, seed=0)
        with pytest.raises(ValueError):
            sim.run(Circuit(3).h(0))

    def test_invalid_trajectories(self):
        with pytest.raises(ValueError):
            NoisySimulator(NoiseModel.uniform(1), num_trajectories=0)


class TestESP:
    def test_esp_in_unit_interval(self):
        nm = uniform_noise(3, error_2q=0.02)
        value = esp(ghz(3), nm)
        assert 0.0 < value < 1.0

    def test_esp_components_sum(self):
        nm = uniform_noise(3, error_2q=0.02)
        c = ghz(3)
        comps = esp_components(c, nm)
        assert math.exp(sum(comps.values())) == pytest.approx(esp(c, nm))

    def test_esp_decreases_with_more_gates(self):
        nm = uniform_noise(4, error_2q=0.02)
        c = ghz_linear(4)
        assert esp(c, nm) > esp(c.copy().compose(c).compose(c), nm)

    def test_esp_to_hellinger_bounds(self):
        assert esp_to_hellinger(1.0, 5) == pytest.approx(1.0)
        assert 0.0 <= esp_to_hellinger(0.0, 5) < 0.2
        assert esp_to_hellinger(0.5, 2) > esp_to_hellinger(0.5, 20)

    def test_analytic_close_to_trajectory(self):
        """The analytic model should land within ~0.15 of the trajectory sim."""
        nm = uniform_noise(4, error_2q=0.015, readout_error=0.02)
        c = ghz_linear(4)
        analytic = esp_to_hellinger(esp(c, nm), c.num_qubits)
        sim = NoisySimulator(nm, num_trajectories=80, seed=3)
        measured = hellinger_fidelity(
            sim.noisy_probabilities(c), ideal_probabilities(c)
        )
        assert abs(analytic - measured) < 0.15

    def test_esp_sees_in_place_append(self):
        """``Circuit.add`` grows the op list in place; nothing may keep
        serving the one-gate answer."""
        nm = uniform_noise(2, error_2q=0.05)
        c = Circuit(2)
        c.add("h", [0])
        before = esp(c, nm)
        c.add("cx", [0, 1])
        assert esp(c, nm) == esp(c.copy(), nm) < before

    def test_duration_accumulates(self):
        nm = NoiseModel.uniform(2, duration_2q_ns=300.0)
        c = Circuit(2).cx(0, 1).cx(0, 1)
        assert circuit_duration_ns(c, nm) == pytest.approx(600.0)

    def test_duration_parallel_wires(self):
        nm = NoiseModel.uniform(4, duration_2q_ns=300.0)
        c = Circuit(4).cx(0, 1).cx(2, 3)
        assert circuit_duration_ns(c, nm) == pytest.approx(300.0)


# ---------------------------------------------------------------------------
# RNG stream contracts and batched hot-path equivalence
# ---------------------------------------------------------------------------

from repro.simulation import apply_matrix_batched  # noqa: E402


class TestRngStreamContracts:
    def test_batched_normal_bit_identical_to_sequential(self):
        """The RNG contract at the trajectory draw pass: the one (T, n)
        detuning block == T sequential (n,) draws from the same stream."""
        nm = uniform_noise(5, t1_us=60.0, t2_us=35.0)
        c = ghz_linear(5)
        sim = NoisySimulator(nm, num_trajectories=7, seed=0)
        draws = sim._draw_randomness(c, [], np.random.default_rng(11))
        rng = np.random.default_rng(11)
        rows = np.stack([rng.normal(0.0, 1.0, 5) for _ in range(7)])
        assert np.array_equal(draws.detunings, rows * sim._detuning_sigmas(5))

    def test_sample_counts_matches_raw_multinomial(self):
        probs = ideal_probabilities(Circuit(3).h(0).cx(0, 1).cx(1, 2))
        counts = sample_counts(probs, 1000, np.random.default_rng(5), 3)
        draws = np.random.default_rng(5).multinomial(1000, probs / probs.sum())
        expect = {
            format(i, "03b"): int(v) for i, v in enumerate(draws) if v
        }
        assert counts == expect


class TestBatchedTrajectoryEquivalence:
    def test_same_seed_same_probs(self):
        nm = uniform_noise(3, error_2q=0.02, readout_error=0.02)
        c = ghz(3)
        p1 = NoisySimulator(nm, num_trajectories=12, seed=9).noisy_probabilities(c)
        p2 = NoisySimulator(nm, num_trajectories=12, seed=9).noisy_probabilities(c)
        assert np.array_equal(p1, p2)

    def test_batched_matches_single_trajectory_replay(self):
        """Evolving the (T, 2**n) stack must be bit-equivalent to replaying
        each trajectory alone with its slice of the shared draws."""
        nm = uniform_noise(
            4, t1_us=60.0, t2_us=35.0, error_2q=0.03, readout_error=0.04
        )
        c = ghz_linear(4)
        sim = NoisySimulator(nm, num_trajectories=8, seed=21)
        plan = sim._noise_plan(c)
        draws = sim._draw_randomness(c, plan, np.random.default_rng(21))
        stacked = sim._evolve_trajectories(c, plan, draws)
        for t in range(8):
            lone = sim._evolve_trajectories(c, plan, draws.select(t))
            np.testing.assert_allclose(
                stacked[t], lone[0], rtol=0.0, atol=1e-12
            )

    def test_batched_gate_apply_matches_per_state(self):
        rng = np.random.default_rng(3)
        states = rng.normal(size=(5, 8)) + 1j * rng.normal(size=(5, 8))
        gate = Circuit(3).cx(0, 2).ops[0]
        batched = apply_matrix_batched(states, gate.matrix(), gate.qubits, 3)
        from repro.simulation import apply_matrix

        for row in range(5):
            assert np.array_equal(
                batched[row],
                apply_matrix(states[row], gate.matrix(), gate.qubits, 3),
            )
