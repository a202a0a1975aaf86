"""Top-level transpile entry point (§2.2's compilation stage).

Pipeline: basis decomposition -> initial layout -> SWAP routing ->
re-decomposition (swaps) -> 1q-run fusion -> ASAP schedule. The result
carries everything downstream consumers need: the physical circuit, the
layout, swap overhead, and the scheduled duration.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..circuits.circuit import Circuit
from ..circuits.metrics import CircuitMetrics, compute_metrics
from ..simulation.noise import NoiseModel
from ..simulation.schedule import Schedule, schedule_circuit
from .decompose import decompose_circuit, fuse_1q_runs
from .layout import linear_path_layout, noise_aware_layout
from .routing import route

__all__ = ["TranspileResult", "transpile", "Target"]


@dataclass(frozen=True)
class Target:
    """Device description the transpiler compiles against.

    Built from a :class:`~repro.backends.qpu.QPU`, a template QPU, or
    assembled by hand in tests.
    """

    num_qubits: int
    coupling: tuple[tuple[int, int], ...]
    basis_gates: tuple[str, ...]
    noise_model: NoiseModel

    @classmethod
    def from_backend(cls, backend) -> "Target":
        """Accepts any object with num_qubits/coupling/basis_gates/noise_model."""
        return cls(
            num_qubits=backend.num_qubits,
            coupling=tuple(tuple(e) for e in backend.coupling),
            basis_gates=tuple(backend.basis_gates),
            noise_model=backend.noise_model,
        )


@dataclass
class TranspileResult:
    """Physical circuit plus compilation metadata."""

    circuit: Circuit
    initial_mapping: dict[int, int]
    final_mapping: dict[int, int]
    num_swaps: int
    schedule: Schedule
    metrics: CircuitMetrics

    @property
    def duration_ns(self) -> float:
        return self.schedule.duration_ns


def transpile(circuit: Circuit, target: Target) -> TranspileResult:
    """Compile ``circuit`` for ``target``.

    Raises ``ValueError`` when the circuit is wider than the device.
    """
    if circuit.num_qubits > target.num_qubits:
        raise ValueError(
            f"{circuit.num_qubits}-qubit circuit does not fit "
            f"{target.num_qubits}-qubit target"
        )
    basis = decompose_circuit(circuit)
    # Chain-structured circuits map along a physical path (near-zero
    # routing); everything else gets the greedy best-region layout.
    layout = linear_path_layout(
        basis, list(target.coupling), target.noise_model, target.num_qubits
    )
    if layout is None:
        layout = noise_aware_layout(
            basis, list(target.coupling), target.noise_model, target.num_qubits
        )

    routed = route(
        basis,
        list(target.coupling),
        target.num_qubits,
        initial_mapping=layout.logical_to_physical,
    )
    physical = fuse_1q_runs(decompose_circuit(routed.circuit))  # expands swaps
    sched = schedule_circuit(physical, target.noise_model)
    return TranspileResult(
        circuit=physical,
        initial_mapping=routed.initial_mapping,
        final_mapping=routed.final_mapping,
        num_swaps=routed.num_swaps,
        schedule=sched,
        metrics=compute_metrics(physical),
    )
