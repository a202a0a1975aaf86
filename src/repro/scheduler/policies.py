"""Baseline quantum scheduling policies.

* :class:`FCFSPolicy` — the paper's baseline: jobs are served strictly in
  arrival order and each picks the **highest-fidelity** QPU that fits
  (standard current practice, which is what creates hotspots, §3).
* :class:`BatchedFCFSPolicy` — the same decision rule driven by the
  scheduling trigger: jobs accumulate in the shard's pending queue and
  one cycle assigns the whole batch.  Because it queues (rather than
  dispatching on arrival), it is the cheap batched policy work-stealing
  rebalancers can act on at fleet scale.

Both are :class:`~repro.scheduler.policy.SchedulingPolicy` subclasses;
FCFS is the only shipped policy the engine drives per arrival
(``batched = False``).  The rule reads fidelity and nothing else, so it
scores every batch through one
:meth:`~repro.estimator.source.EstimateSource.fidelity_block` call
(:class:`~repro.estimator.estimator.ResourceEstimator`,
:class:`~repro.estimator.cache.CachedEstimator` in front of it, or a
synthetic scorer wrapped in
:class:`~repro.estimator.source.PairwiseEstimateSource`): the runtime
model never runs for it, and neither waits nor runtimes are read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..backends.qpu import QPU
from ..cloud.job import QuantumJob, feasibility_matrix
from ..cloud.tenancy import tier_sort
from ..estimator.source import EstimateSource, require_estimate_source
from .policy import SchedulingPolicy

__all__ = [
    "FCFSPolicy",
    "BatchedFCFSPolicy",
    "BatchDecision",
    "BatchSchedule",
    "BatchPlan",
]


class FCFSPolicy(SchedulingPolicy):
    """First-come-first-serve onto the best-fidelity feasible QPU."""

    name = "fcfs"

    def __init__(self, estimate_fn: EstimateSource, *, shard_id: int = 0) -> None:
        self.estimate_fn = require_estimate_source(estimate_fn, type(self).__name__)
        self.shard_id = shard_id

    def spawn(self, shard_id: int) -> "FCFSPolicy":
        """A per-shard instance sharing this policy's estimate source."""
        return type(self)(self.estimate_fn, shard_id=shard_id)

    def assign(
        self, jobs: list[QuantumJob], qpus: list[QPU]
    ) -> list[tuple[QuantumJob, str | None]]:
        if not jobs or not qpus:
            return [(job, None) for job in jobs]
        feas = feasibility_matrix(jobs, qpus)
        fid = self.estimate_fn.fidelity_block(jobs, qpus, feas)
        scored = np.where(feas, fid, -np.inf)
        # argmax returns the first maximum, matching the pre-block
        # per-job max() over feasible QPUs in listing order.
        best = scored.argmax(axis=1)
        return [
            (job, qpus[best[i]].name if feas[i].any() else None)
            for i, job in enumerate(jobs)
        ]


@dataclass
class BatchDecision:
    """One job's assignment out of a batched baseline cycle."""

    job: QuantumJob
    qpu_name: str


@dataclass
class BatchSchedule:
    """Output of one :class:`BatchedFCFSPolicy` cycle.

    The structural subset of
    :class:`~repro.scheduler.quantum.QuantumSchedule` the cloud
    simulator consumes: ``decisions``, ``unschedulable`` and
    ``stage_seconds`` (empty — no stage of this cycle is timed).
    """

    decisions: list[BatchDecision]
    unschedulable: list[QuantumJob]
    stage_seconds: dict = field(default_factory=dict)


@dataclass
class BatchPlan:
    """What :meth:`BatchedFCFSPolicy.begin_cycle` hands to
    ``finish_cycle``: no optimization ``task``, and the schedule already
    decided."""

    schedule: BatchSchedule
    task: None = None


class BatchedFCFSPolicy(FCFSPolicy):
    """Trigger-driven FCFS: queue arrivals, assign the batch per cycle.

    Declaring ``batched`` makes the owning
    :class:`~repro.cloud.fleet.FleetShard` queue arrivals in its pending
    list until the trigger fires, which is what gives a
    :class:`~repro.cloud.fleet.RebalancePolicy` a window to migrate them.
    The per-job decision rule is exactly FCFS (highest-fidelity feasible
    online QPU, arrival order preserved), so it remains a *baseline* —
    just one that can be driven at fleet scale without NSGA-II cost.

    Tenant-tagged batches are served in **tier order** (premium tiers
    first, degraded best-effort jobs last, arrival order within a tier);
    untenanted batches pass through :func:`~repro.cloud.tenancy.tier_sort`
    unchanged, keeping tenancy-off runs bit-identical.
    """

    name = "fcfs_batched"
    batched = True

    def begin_cycle(
        self,
        jobs: list[QuantumJob],
        qpus: list[QPU],
        waiting_seconds: dict[str, float] | None = None,
    ) -> BatchPlan:
        """The whole cycle: FCFS has no optimization stage, so the
        trigger-time snapshot is decided here and ``finish_cycle`` only
        hands it back.  The rule reads no waits: ``waiting_seconds`` is
        the batched contract's, and unused."""
        jobs = tier_sort(jobs)
        decisions: list[BatchDecision] = []
        unschedulable: list[QuantumJob] = []
        for job, qpu_name in self.assign(jobs, qpus):
            if qpu_name is None:
                unschedulable.append(job)
            else:
                decisions.append(BatchDecision(job=job, qpu_name=qpu_name))
        return BatchPlan(BatchSchedule(decisions, unschedulable))

    def finish_cycle(self, plan: BatchPlan, result: None) -> BatchSchedule:
        return plan.schedule
