"""Baseline quantum scheduling policies.

* :class:`FCFSPolicy` — the paper's baseline: jobs are served strictly in
  arrival order and each picks the **highest-fidelity** QPU that fits
  (standard current practice, which is what creates hotspots, §3).  Its
  default trigger fires on every arrival and sets no deadline, so each
  job is a one-job cycle at its arrival instant.
* :class:`BatchedFCFSPolicy` — the same decision rule on the paper's
  default trigger: jobs accumulate in the shard's pending queue and one
  cycle assigns the whole batch.  Because it queues, it is the cheap
  batched policy work-stealing rebalancers can act on at fleet scale.

Both speak the one cycle of
:class:`~repro.scheduler.policy.SchedulingPolicy`, with no optimization
stage.  The rule is the question
:meth:`~repro.estimator.source.EstimateSource.best_fidelity` answers, so
a cycle is one such call
(:class:`~repro.estimator.estimator.ResourceEstimator`,
:class:`~repro.estimator.cache.CachedEstimator` in front of it, or a
synthetic scorer wrapped in
:class:`~repro.estimator.source.PairwiseEstimateSource`): the runtime
model never runs for it, and neither waits nor runtimes are read.  The
cached source answers a program it already placed on the same QPUs,
under the same calibrations and availability, from a memo without a
table lookup, which leaves the table as those lookups would.
Shard policies spawned from one policy share its source, so when a
second shard misses a program the source scores it for every shard it
knows in that one fill: under one calibration a resubmitted program
costs two model fills, not one per shard, and every decision stays the
uncached estimator's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..backends.qpu import QPU
from ..cloud.job import QuantumJob
from ..cloud.tenancy import tier_sort
from ..estimator.source import EstimateSource, require_estimate_source
from .policy import QueuedSeconds, SchedulingPolicy
from .triggers import SchedulingTrigger

__all__ = [
    "FCFSPolicy",
    "BatchedFCFSPolicy",
    "BatchDecision",
    "BatchSchedule",
]


@dataclass
class BatchDecision:
    """One job's assignment out of an FCFS cycle."""

    job: QuantumJob
    qpu_name: str


@dataclass
class BatchSchedule:
    """Output of one FCFS cycle, and its own plan: FCFS has no
    optimization stage, so ``task`` is ``None`` and ``finish_cycle``
    hands the plan back.

    The structural subset of
    :class:`~repro.scheduler.quantum.QuantumSchedule` the cloud
    simulator consumes: ``decisions``, ``unschedulable`` and
    ``stage_seconds`` (empty — no stage of this cycle is timed).
    """

    decisions: list[BatchDecision]
    unschedulable: list[QuantumJob]
    stage_seconds: dict = field(default_factory=dict)
    task: None = None


class FCFSPolicy(SchedulingPolicy):
    """First-come-first-serve onto the best-fidelity feasible QPU.

    Tenant-tagged batches are served in **tier order** (premium tiers
    first, degraded best-effort jobs last, arrival order within a tier);
    untenanted batches pass through :func:`~repro.cloud.tenancy.tier_sort`
    unchanged, keeping tenancy-off runs bit-identical.
    """

    name = "fcfs"

    def __init__(self, estimate_fn: EstimateSource, *, shard_id: int = 0) -> None:
        self.estimate_fn = require_estimate_source(estimate_fn, type(self).__name__)
        self.shard_id = shard_id

    def spawn(self, shard_id: int) -> "FCFSPolicy":
        """A per-shard instance sharing this policy's estimate source."""
        return type(self)(self.estimate_fn, shard_id=shard_id)

    def default_trigger(self) -> SchedulingTrigger:
        """Per arrival: a one-job queue fires, and no deadline is set."""
        return SchedulingTrigger(queue_limit=1, interval_seconds=math.inf)

    def assign(
        self, jobs: list[QuantumJob], qpus: list[QPU]
    ) -> list[tuple[QuantumJob, str | None]]:
        """The decision rule: ``(job, qpu_name | None)`` per job, in
        order; ``None`` marks a job no online QPU fits (every job, when
        ``qpus`` is empty).  Ties go to the first QPU in listing order."""
        return [
            (job, None if best is None else qpus[best[0]].name)
            for job, best in zip(jobs, self.estimate_fn.best_fidelity(jobs, qpus))
        ]

    def begin_cycle(
        self,
        jobs: list[QuantumJob],
        qpus: list[QPU],
        waiting_seconds: QueuedSeconds | None = None,
    ) -> BatchSchedule:
        """The whole cycle, decided on the trigger-time snapshot.  The
        rule reads no waits."""
        decisions: list[BatchDecision] = []
        unschedulable: list[QuantumJob] = []
        for job, qpu_name in self.assign(tier_sort(jobs), qpus):
            if qpu_name is None:
                unschedulable.append(job)
            else:
                decisions.append(BatchDecision(job=job, qpu_name=qpu_name))
        return BatchSchedule(decisions, unschedulable)

    def finish_cycle(self, plan: BatchSchedule, result: None) -> BatchSchedule:
        return plan


class BatchedFCFSPolicy(FCFSPolicy):
    """Trigger-driven FCFS: queue arrivals, assign the batch per cycle.

    On the paper's default trigger the owning
    :class:`~repro.cloud.fleet.FleetShard` holds arrivals in its pending
    list until the trigger fires, which is what gives a
    :class:`~repro.cloud.fleet.ThresholdRebalancePolicy` a window to
    migrate them.  The per-job decision rule is exactly FCFS's, so it
    remains a *baseline* — one that can be driven at fleet scale without
    NSGA-II cost.
    """

    name = "fcfs_batched"

    def default_trigger(self) -> SchedulingTrigger:
        return SchedulingTrigger()
