"""Training-set generation for the regression estimators.

The paper collects 7 000+ job executions on the IBM cloud; offline, we
generate the equivalent dataset by executing sampled workloads through the
ground-truth :class:`~repro.cloud.execution.ExecutionModel` across the
drifting fleet — same feature/target structure, synthetic substrate
(substitution documented in DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..backends.qpu import QPU
from ..cloud.execution import ExecutionModel
from ..cloud.job import QuantumJob
from ..mitigation.stack import STANDARD_STACKS
from ..workloads.suite import WorkloadSampler
from .features import fidelity_features, runtime_features

__all__ = ["EstimatorDataset", "generate_dataset"]

#: Records between two recalibrations of the whole fleet.
_RECALIBRATE_EVERY = 400


@dataclass
class EstimatorDataset:
    """Feature matrices and targets for both estimators."""

    X_fidelity: np.ndarray
    y_fidelity: np.ndarray
    X_runtime: np.ndarray
    y_runtime: np.ndarray  # quantum seconds
    mitigations: list[str]
    qpu_names: list[str]

    def __len__(self) -> int:
        return len(self.y_fidelity)


def generate_dataset(
    fleet: list[QPU],
    *,
    num_records: int = 2000,
    execution_model: ExecutionModel | None = None,
    seed: int = 0,
) -> EstimatorDataset:
    """Run ``num_records`` synthetic jobs across the fleet.

    Calibration cycles advance periodically so the dataset spans the
    temporal drift the estimators must generalize over.
    """
    if not fleet:
        raise ValueError("need at least one QPU")
    rng = np.random.default_rng(seed)
    em = execution_model or ExecutionModel(seed=seed)
    max_width = max(q.num_qubits for q in fleet)
    sampler = WorkloadSampler(
        mean_qubits=8.0,
        std_qubits=4.0,
        max_qubits=max_width,
        seed=seed,
    )
    stack_names = list(STANDARD_STACKS)
    Xf, yf, Xr, yr, mits, qpus = [], [], [], [], [], []
    for i in range(num_records):
        if i > 0 and i % _RECALIBRATE_EVERY == 0:
            for qpu in fleet:
                qpu.recalibrate()
        sampled = sampler.sample()
        mitigation = stack_names[int(rng.integers(len(stack_names)))]
        job = QuantumJob(
            metrics=sampled.metrics,
            shots=sampled.shots,
            mitigation=mitigation,
            benchmark=sampled.benchmark,
        )
        candidates = [q for q in fleet if q.num_qubits >= job.num_qubits]
        if not candidates:
            continue
        qpu = candidates[int(rng.integers(len(candidates)))]
        record = em.execute(job, qpu.calibration, qpu.model, rng)
        Xf.append(fidelity_features(job.metrics, job.shots, mitigation, qpu.calibration))
        yf.append(record.fidelity)
        Xr.append(runtime_features(job.metrics, job.shots, mitigation, qpu.calibration))
        yr.append(record.quantum_seconds)
        mits.append(mitigation)
        qpus.append(qpu.name)
    return EstimatorDataset(
        X_fidelity=np.array(Xf),
        y_fidelity=np.array(yf),
        X_runtime=np.array(Xr),
        y_runtime=np.array(yr),
        mitigations=mits,
        qpu_names=qpus,
    )
