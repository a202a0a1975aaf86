"""Benchmark circuit library (MQT-Bench substitute)."""

from .dynamics import amplitude_estimation, tfim_trotter
from .ghz import ghz, ghz_linear, w_state
from .grover import diffuser, grover, grover_oracle, mcp, mcx
from .oracles import bernstein_vazirani, deutsch_jozsa
from .qaoa import (
    qaoa_maxcut,
    qaoa_ring_maxcut,
    random_maxcut_graph,
)
from .qft import qft, qft_entangled
from .qpe import phase_estimation, ripple_adder
from .random_circuits import clustered_circuit, random_circuit
from .suite import (
    BENCHMARKS,
    WIDTH_DETERMINED,
    SampledJob,
    WorkloadSampler,
    benchmark_names,
    generate,
)
from .vqe import real_amplitudes, two_local

__all__ = [
    "ghz",
    "ghz_linear",
    "w_state",
    "qft",
    "qft_entangled",
    "qaoa_maxcut",
    "qaoa_ring_maxcut",
    "random_maxcut_graph",
    "real_amplitudes",
    "two_local",
    "diffuser",
    "grover",
    "grover_oracle",
    "mcp",
    "mcx",
    "bernstein_vazirani",
    "deutsch_jozsa",
    "phase_estimation",
    "ripple_adder",
    "clustered_circuit",
    "amplitude_estimation",
    "tfim_trotter",
    "random_circuit",
    "BENCHMARKS",
    "WIDTH_DETERMINED",
    "SampledJob",
    "WorkloadSampler",
    "benchmark_names",
    "generate",
]
