"""Simulated QPU backends with queues and time flow (§8.2).

The paper patches Qiskit FakeBackends "with the ability to maintain their
own queue of scheduled jobs, job waiting and execution times, and the
notion of time flow". :class:`SimulatedQPU` is that patch: it wraps a
:class:`~repro.backends.qpu.QPU`, executes assigned jobs sequentially on a
simulated clock via the ground-truth execution model, and tracks the busy
time used for utilization and load metrics.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..backends.qpu import QPU
from .execution import ExecutionModel, ExecutionRecord
from .job import JobStatus, QuantumJob

__all__ = ["SimulatedQPU"]


@dataclass
class SimulatedQPU:
    """One device's runtime state inside the cloud simulation."""

    qpu: QPU
    free_at: float = 0.0  # simulated time when the device next idles
    busy_seconds: float = 0.0
    jobs_executed: int = 0

    @property
    def name(self) -> str:
        return self.qpu.name

    @property
    def num_qubits(self) -> int:
        return self.qpu.num_qubits

    def waiting_seconds(self, now: float) -> float:
        """Current queue delay: how long a new job would wait to start."""
        return max(0.0, self.free_at - now)

    # ------------------------------------------------------------------
    def execute(
        self,
        job: QuantumJob,
        now: float,
        execution_model: ExecutionModel,
        noise: Sequence[float],
    ) -> ExecutionRecord:
        """Run ``job`` as soon as the device frees up, with ``noise`` its
        four log-normal factors; updates job record."""
        record = execution_model.execute(
            job, self.qpu.calibration, self.qpu.model, noise
        )
        start = max(now, self.free_at)
        finish = start + record.quantum_seconds
        self.free_at = finish
        self.busy_seconds += record.quantum_seconds
        self.jobs_executed += 1

        job.status = JobStatus.COMPLETED
        job.start_time = start
        job.finish_time = finish
        job.assigned_qpu = self.name
        job.fidelity = record.fidelity
        job.quantum_seconds = record.quantum_seconds
        return record
