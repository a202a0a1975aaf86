"""The resource estimator facade (§6, Fig. 4).

Bundles: trained regression models, template QPUs, and plan generation.
This is the control-plane component the API server calls on workflow
invocation (step 3 of the system workflow) and the scheduler queries for
per-(job, QPU) estimates (step 4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..backends.qpu import QPU
from ..backends.template import TemplateQPU, build_templates
from ..circuits.metrics import CircuitMetrics
from ..cloud.execution import ExecutionModel
from ..cloud.job import QuantumJob
from .dataset import generate_dataset
from .models import TrainedEstimators, train_estimators
from .plans import ResourcePlan, generate_resource_plans
from .source import best_feasible, feasibility_matrix, feasible_mask

__all__ = ["ResourceEstimator"]


@dataclass
class ResourceEstimator:
    """Trained estimator bound to a fleet's templates."""

    estimators: TrainedEstimators
    templates: dict[str, TemplateQPU]

    @classmethod
    def train_for_fleet(
        cls,
        fleet: list[QPU],
        *,
        num_records: int = 2000,
        execution_model: ExecutionModel | None = None,
        seed: int = 0,
    ) -> "ResourceEstimator":
        """End-to-end §6 pipeline: dataset -> CV model selection -> templates."""
        dataset = generate_dataset(
            fleet,
            num_records=num_records,
            execution_model=execution_model,
            seed=seed,
        )
        trained = train_estimators(dataset, seed=seed)
        return cls(estimators=trained, templates=build_templates(fleet))

    def refresh_templates(self, fleet: list[QPU]) -> None:
        """Re-average template calibrations (call after calibration cycles)."""
        self.templates = build_templates(fleet)

    #: The :class:`~repro.estimator.source.EstimateSource` hook.
    on_recalibration = refresh_templates

    # ------------------------------------------------------------------
    def estimate_block(
        self,
        jobs: list[QuantumJob],
        qpus: list[QPU],
        feasible: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(fidelity, exec_seconds) matrices over ``jobs`` x ``qpus``.

        The :class:`~repro.estimator.source.EstimateSource` entry point:
        every feasible pair of the block goes through one stacked pass per
        model (:meth:`TrainedEstimators.estimate_pairs`, one predict per
        model per 512 pairs); each value is bit-identical to predicting its
        pair alone.  Infeasible pairs stay zero and are never evaluated.
        """
        feasible = feasible_mask(self, jobs, qpus, feasible)
        fid, sec = np.zeros((2, len(jobs), len(qpus)))
        fids, secs = self.estimators.estimate_pairs(*self._pairs(jobs, qpus, feasible))
        # Transposed views: boolean assignment fills column-major, the
        # order the groups were stacked in.
        fid.T[feasible.T] = fids
        sec.T[feasible.T] = secs
        return fid, sec

    def best_fidelity(
        self, jobs: list[QuantumJob], qpus: list[QPU]
    ) -> list[tuple[int, float] | None]:
        """:func:`~repro.estimator.source.best_feasible` of
        ``estimate_block(jobs, qpus)[0]``, whose bits it reproduces from
        the fidelity model's pass alone."""
        feasible = feasibility_matrix(jobs, qpus)
        fid = np.zeros((len(jobs), len(qpus)))
        fid.T[feasible.T] = self.estimators.fidelity.estimate_pairs(
            *self._pairs(jobs, qpus, feasible)
        )
        return best_feasible(fid, feasible)

    @staticmethod
    def _pairs(jobs: list[QuantumJob], qpus: list[QPU], feasible: np.ndarray):
        """The ``estimate_pairs`` arguments of a block: every job, and one
        group per QPU with a feasible job, in column order."""
        columns = [np.flatnonzero(column) for column in feasible.T]
        return (
            [(j.metrics, j.shots, j.mitigation) for j in jobs],
            [(q.calibration, idx) for q, idx in zip(qpus, columns) if idx.size],
        )

    def cached(self, **kwargs) -> "CachedEstimator":
        """A memoizing, batch-capable ``estimate_fn`` view of this estimator."""
        from .cache import CachedEstimator

        return CachedEstimator(self, **kwargs)

    def generate_plans(
        self,
        metrics: CircuitMetrics,
        shots: int,
        *,
        num_plans: int = 3,
        mitigations: list[str] | None = None,
        min_fidelity: float = 0.0,
        models: list[str] | None = None,
    ) -> list[ResourcePlan]:
        """Client-facing resource plans against the template QPUs."""
        return generate_resource_plans(
            metrics,
            shots,
            self.templates,
            self.estimators,
            num_plans=num_plans,
            mitigations=mitigations,
            min_fidelity=min_fidelity,
            models=models,
        )
