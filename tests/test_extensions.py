"""Tests for the extension features: Hamiltonian-simulation /
amplitude-estimation workloads, the ASCII figure renderer, and validation of the execution model's mitigation effects
against the trajectory simulator."""

from collections import Counter

import numpy as np
import pytest

from helpers.noise import uniform_noise
from repro.backends import default_fleet
from repro.cloud.execution import MITIGATION_EFFECTS, ExecutionModel
from repro.cloud.job import QuantumJob
from repro.experiments.ascii_plot import bar_chart, line_chart
from repro.simulation import (
    NoisySimulator,
    hellinger_fidelity,
    ideal_probabilities,
)
from repro.workloads import amplitude_estimation, ghz_linear, tfim_trotter


class TestDynamicsWorkloads:
    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_tfim_angles_are_unit_couplings_over_unit_time(self, steps):
        """J = h = 1 for time 1: every rzz and rx turns by -2 dt."""
        c = tfim_trotter(4, steps=steps)
        assert c.metadata["hamiltonian"] == {"J": 1.0, "h": 1.0, "time": 1.0, "steps": steps}
        assert {g.params for g in c.ops if g.is_unitary} == {(-2.0 / steps,)}

    def test_tfim_structure(self):
        c = tfim_trotter(5, steps=2)
        ops = Counter(g.name for g in c.ops)
        assert ops["rzz"] == 8 and ops["rx"] == 10

    def test_tfim_validation(self):
        with pytest.raises(ValueError):
            tfim_trotter(1)
        with pytest.raises(ValueError):
            tfim_trotter(3, steps=0)

    def test_amplitude_estimation_powers_oscillate(self):
        """Hit probability follows sin^2((2k+1) theta) in Grover power k."""
        n = 3
        marked = "111"
        theta = np.arcsin(np.sqrt(1 / 2**n))
        for k in (0, 1, 2):
            probs = ideal_probabilities(amplitude_estimation(n, k))
            expected = np.sin((2 * k + 1) * theta) ** 2
            assert probs[int(marked, 2)] == pytest.approx(expected, abs=1e-6)

    def test_amplitude_estimation_validation(self):
        with pytest.raises(ValueError):
            amplitude_estimation(1)
        with pytest.raises(ValueError):
            amplitude_estimation(3, grover_power=-1)

    def test_registered_in_suite(self):
        from repro.workloads import generate

        assert generate("tfim", 6).metadata["benchmark"] == "tfim"
        assert generate("amplitude_estimation", 3).num_qubits == 3


class TestAsciiPlot:
    def test_line_chart_renders_all_series(self):
        out = line_chart(
            {
                "qonductor": (np.arange(5.0), np.arange(5.0)),
                "fcfs": (np.arange(5.0), np.arange(5.0) * 2),
            },
            title="test",
        )
        assert "test" in out and "*=qonductor" in out and "o=fcfs" in out
        # The title, 12 plot rows, the x axis and the legend.
        assert len(out.splitlines()) == 15

    def test_line_chart_empty(self):
        out = line_chart({"a": (np.array([]), np.array([]))})
        assert "no data" in out

    def test_bar_chart_scales(self):
        out = bar_chart({"auckland": 100.0, "algiers": 50.0})
        lines = out.splitlines()
        assert lines[0].count("█") == 48
        assert lines[1].count("█") == 24


class TestMitigationEffectValidation:
    """The MITIGATION_EFFECTS constants must match the mechanistic
    improvements delivered by our actual mitigation implementations."""

    def _measured_gain(self, preset: str) -> float:
        from repro.mitigation import MitigationStack

        nm = uniform_noise(
            4, error_2q=0.02, readout_error=0.04, t1_us=80, t2_us=50
        )
        sim = NoisySimulator(nm, num_trajectories=60, seed=3)
        c = ghz_linear(4)
        ideal = ideal_probabilities(c)
        stack = MitigationStack.preset(preset)
        plan = stack.expand(c, nm)
        probs = [sim.noisy_probabilities(i) for i in plan.instances]
        return hellinger_fidelity(stack.post_process(plan, probs, nm, 4), ideal)

    def test_effect_table_orderings_match_simulation(self):
        base = self._measured_gain("none")
        rem = self._measured_gain("rem")
        full = self._measured_gain("dd+zne+rem")
        assert rem > base
        assert full > rem

    def test_model_gain_matches_simulation_direction(self):
        fleet = default_fleet(seed=7, names=["algiers"])
        em = ExecutionModel(seed=1)
        job_p = QuantumJob.from_circuit(ghz_linear(4), shots=4000)
        job_m = QuantumJob.from_circuit(
            ghz_linear(4), shots=4000, mitigation="dd+zne+rem"
        )
        model_gain = em.expected_fidelity(
            job_m, fleet[0].calibration, fleet[0].model
        ) - em.expected_fidelity(job_p, fleet[0].calibration, fleet[0].model)
        sim_gain = self._measured_gain("dd+zne+rem") - self._measured_gain("none")
        assert model_gain > 0 and sim_gain > 0

    def test_effects_table_well_formed(self):
        for tech, eff in MITIGATION_EFFECTS.items():
            for key, value in eff.items():
                if key in ("readout", "gate", "decoherence"):
                    assert 0.0 < value <= 1.0, (tech, key)
                else:
                    assert value > 0.0, (tech, key)
