"""Job and hybrid-application records flowing through the cloud simulator."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from ..circuits.circuit import Circuit
from ..circuits.metrics import CircuitMetrics, compute_metrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .tenancy import Tenant

__all__ = ["JobStatus", "QuantumJob", "HybridApplication"]


_job_ids = itertools.count()
_app_ids = itertools.count()


class JobStatus(str, Enum):
    PENDING = "pending"
    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    #: Shed at the front door (rate limit / queue quota) — never routed.
    REJECTED = "rejected"


@dataclass
class QuantumJob:
    """One quantum execution request.

    Carries the structural metrics the estimator and scheduler read, not
    the circuit they were computed from: nothing downstream of
    :meth:`from_circuit` reads a circuit, and dropping it keeps a
    cloud-scale run's memory flat.
    """

    metrics: CircuitMetrics
    shots: int
    mitigation: str = "none"  # a preset name from STANDARD_STACKS
    benchmark: str = "unknown"
    job_id: int = field(default_factory=lambda: next(_job_ids))
    #: Multi-tenancy (see :mod:`repro.cloud.tenancy`): the owning tenant
    #: (``None`` for untenanted runs — the default, which bypasses the
    #: front door entirely) and the degraded-to-best-effort flag an
    #: :class:`~repro.cloud.tenancy.AdmissionController` sets on
    #: queue-quota breaches.
    tenant: "Tenant | None" = None
    best_effort: bool = False

    # Lifecycle (filled in by the simulator / job manager):
    status: JobStatus = JobStatus.PENDING
    arrival_time: float = 0.0
    schedule_time: float | None = None
    start_time: float | None = None
    finish_time: float | None = None
    assigned_qpu: str | None = None
    fidelity: float | None = None
    quantum_seconds: float | None = None

    @classmethod
    def from_circuit(
        cls,
        circuit: Circuit,
        shots: int = 4000,
        mitigation: str = "none",
    ) -> "QuantumJob":
        return cls(
            metrics=compute_metrics(circuit),
            shots=shots,
            mitigation=mitigation,
            benchmark=circuit.metadata.get("benchmark", circuit.name),
        )

    @property
    def num_qubits(self) -> int:
        return self.metrics.num_qubits

    @property
    def tenant_id(self) -> str | None:
        return self.tenant.tenant_id if self.tenant is not None else None

    @property
    def completion_time(self) -> float | None:
        """JCT: arrival -> finish (paper's metric (1))."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.arrival_time


@dataclass
class HybridApplication:
    """A hybrid workflow instance: classical pre -> quantum -> classical post.

    The classical stages model the error-mitigation generation/inference
    steps of Fig. 1; their durations come from the execution model and run
    on (abundant) classical workers, so their waiting time is ~0 (§8.3).
    The application owns the arrival instant: construction writes it to
    its quantum job.
    """

    quantum_job: QuantumJob
    pre_seconds: float = 0.0
    post_seconds: float = 0.0
    app_id: int = field(default_factory=lambda: next(_app_ids))
    arrival_time: float = 0.0
    finish_time: float | None = None

    def __post_init__(self) -> None:
        self.quantum_job.arrival_time = self.arrival_time

    @property
    def uses_mitigation(self) -> bool:
        return self.quantum_job.mitigation != "none"

    @property
    def tenant(self) -> "Tenant | None":
        return self.quantum_job.tenant

    @property
    def completion_time(self) -> float | None:
        if self.finish_time is None:
            return None
        return self.finish_time - self.arrival_time
