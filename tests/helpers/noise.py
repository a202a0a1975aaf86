"""Uniform noise models at chosen noise levels.

``NoiseModel.uniform`` fixes a typical device's T1/T2, readout and gate
errors; a test that varies them builds the same model here and sets its
levels on it.
"""

from repro.simulation.noise import GateNoise, NoiseModel, QubitNoise


def uniform_noise(
    num_qubits,
    *,
    t1_us=150.0,
    t2_us=110.0,
    readout_error=0.015,
    error_1q=3e-4,
    error_2q=8e-3,
    **layout,
):
    """``NoiseModel.uniform(num_qubits, **layout)`` with every qubit's
    T1/T2 and readout error, and every 1q and 2q gate error, set to the
    levels given."""
    nm = NoiseModel.uniform(num_qubits, **layout)
    nm.qubits = [
        QubitNoise(t1_us, t2_us, readout_error, readout_error) for _ in range(num_qubits)
    ]
    nm.gates_2q = {edge: GateNoise(error_2q, g.duration_ns) for edge, g in nm.gates_2q.items()}
    nm.default_1q = GateNoise(error_1q, nm.default_1q.duration_ns)
    nm.default_2q = GateNoise(error_2q, nm.default_2q.duration_ns)
    return nm
