"""The one contract between the cloud engine and a scheduling policy.

Every policy the simulator drives — the Qonductor scheduler and the
FCFS baselines, per-arrival and batched (Figs. 6, 8) — subclasses
:class:`SchedulingPolicy` and *declares* which of the engine's two shapes
it speaks.  ``batched = False``: the engine calls :meth:`assign` the
instant a job is routed to the policy's shard.  ``batched = True``:
arrivals queue on the shard until its trigger fires, then
:meth:`begin_cycle` snapshots the queue into a plan, the plan's
``task`` (if any) runs through
:func:`~repro.scheduler.cycle.run_optimization` — a pure function of the
task, so a recorded cycle replays — and :meth:`finish_cycle` turns
plan + result into the schedule the engine commits.
:func:`require_policy` checks the declaration at construction (like
:func:`~repro.estimator.source.require_estimate_source`), so the engine
never probes a policy for what it can do.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .cycle import OptimizationResult, run_optimization

if TYPE_CHECKING:
    from ..backends.qpu import QPU
    from ..cloud.job import QuantumJob
    from ..estimator.source import EstimateSource

__all__ = ["SchedulingPolicy", "require_policy"]


class SchedulingPolicy:
    """Base class of everything a :class:`~repro.cloud.fleet.FleetShard`
    accepts as its policy."""

    #: Which shape the engine drives (see the module docstring).
    batched: bool = False
    #: The source the policy scores (job, QPU) pairs with, if it has one.
    estimate_fn: EstimateSource | None = None
    shard_id: int = 0

    def spawn(self, shard_id: int) -> SchedulingPolicy:
        """A per-shard instance of this policy's configuration, sharing
        its estimate source (one fleet-wide cache)."""
        raise NotImplementedError

    def on_recalibration(self, qpus: list[QPU]) -> None:
        """Calibration-cycle hook, called once per shard with the full
        fleet; forwards to the estimate source."""
        if self.estimate_fn is not None:
            self.estimate_fn.on_recalibration(qpus)

    def assign(
        self, jobs: list[QuantumJob], qpus: list[QPU]
    ) -> list[tuple[QuantumJob, str | None]]:
        """Per-arrival shape: ``(job, qpu_name | None)`` per job, in
        order; ``None`` marks a job no online QPU fits (every job, when
        ``qpus`` is empty)."""
        raise NotImplementedError

    def begin_cycle(
        self,
        jobs: list[QuantumJob],
        qpus: list[QPU],
        waiting_seconds: dict[str, float] | None = None,
    ) -> Any:
        """Batched shape, first half: a plan whose ``task`` is an
        :class:`~repro.scheduler.cycle.OptimizationTask`, or ``None``
        when the cycle has no optimization stage.  ``waiting_seconds``
        maps each QPU name to its queued work at the trigger instant;
        a policy may ignore it."""
        raise NotImplementedError

    def finish_cycle(self, plan: Any, result: OptimizationResult | None) -> Any:
        """Batched shape, second half: the cycle's schedule
        (``decisions``, ``unschedulable``, ``stage_seconds``).  ``result``
        is ``None`` exactly when ``plan.task`` was."""
        raise NotImplementedError

    def schedule(
        self,
        jobs: list[QuantumJob],
        qpus: list[QPU],
        waiting_seconds: dict[str, float] | None = None,
    ) -> Any:
        """One full batched cycle, stages fused — for callers outside a
        simulator (the figure experiments)."""
        plan = self.begin_cycle(jobs, qpus, waiting_seconds)
        result = run_optimization(plan.task) if plan.task is not None else None
        return self.finish_cycle(plan, result)


def require_policy(policy: object, owner: str) -> SchedulingPolicy:
    """``policy`` if it is a complete :class:`SchedulingPolicy`, else a
    ``TypeError`` naming ``owner`` and the missing piece."""
    if not isinstance(policy, SchedulingPolicy):
        raise TypeError(
            f"{owner} needs a SchedulingPolicy (subclass "
            f"repro.scheduler.SchedulingPolicy), got {type(policy).__name__}"
        )
    shape = ("begin_cycle", "finish_cycle") if policy.batched else ("assign",)
    missing = [
        name
        for name in ("spawn", *shape)
        if getattr(type(policy), name) is getattr(SchedulingPolicy, name)
    ]
    if missing:
        raise TypeError(
            f"{owner}: {type(policy).__name__} declares batched="
            f"{policy.batched} but does not define {', '.join(missing)}"
        )
    return policy
