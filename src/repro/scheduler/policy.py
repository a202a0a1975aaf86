"""The one contract between the cloud engine and a scheduling policy.

Every policy the simulator drives — the Qonductor scheduler and the
FCFS baselines (Figs. 6, 8) — subclasses :class:`SchedulingPolicy` and
speaks one shape, the §7 scheduling cycle.  Arrivals queue on the
policy's shard until the shard's trigger fires (the one it was given,
else :meth:`~SchedulingPolicy.default_trigger`); then
:meth:`~SchedulingPolicy.begin_cycle` snapshots the queue into a plan,
the plan's ``task`` (if any) runs through
:func:`~repro.scheduler.cycle.run_optimization` — a pure function of the
task, so a recorded cycle replays — and
:meth:`~SchedulingPolicy.finish_cycle` turns plan + result into the
schedule the engine commits.  The per-arrival FCFS baseline is this
cycle on a trigger that fires at every arrival and sets no deadline.
:func:`require_policy` checks the pieces at construction (like
:func:`~repro.estimator.source.require_estimate_source`), so the engine
never probes a policy for what it can do.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Protocol

from .cycle import OptimizationResult, run_optimization
from .triggers import SchedulingTrigger

if TYPE_CHECKING:
    from ..backends.qpu import QPU
    from ..cloud.job import QuantumJob
    from ..estimator.source import EstimateSource

__all__ = ["SchedulingPolicy", "require_policy"]


class QueuedSeconds(Protocol):
    """Each QPU's queued work at the trigger instant, read by name: a
    ``dict``, or the simulator's view that reads a device only when
    asked."""

    def get(self, name: str, default: float, /) -> float: ...


class SchedulingPolicy:
    """Base class of everything a :class:`~repro.cloud.fleet.FleetShard`
    accepts as its policy."""

    #: The source the policy scores (job, QPU) pairs with, if it has one.
    #: The simulator sends it each calibration wave itself, once however
    #: many shard policies share it.
    estimate_fn: EstimateSource | None = None
    shard_id: int = 0

    def spawn(self, shard_id: int) -> SchedulingPolicy:
        """A per-shard instance of this policy's configuration, sharing
        its estimate source (one fleet-wide cache)."""
        raise NotImplementedError

    def default_trigger(self) -> SchedulingTrigger:
        """The trigger a shard given none runs this policy on: the
        paper's 100 jobs / 120 s."""
        return SchedulingTrigger()

    def begin_cycle(
        self,
        jobs: list[QuantumJob],
        qpus: list[QPU],
        waiting_seconds: QueuedSeconds | None = None,
    ) -> Any:
        """First half of a cycle: a plan whose ``task`` is an
        :class:`~repro.scheduler.cycle.OptimizationTask`, or ``None``
        when the cycle has no optimization stage.  ``waiting_seconds``
        gives each QPU's queued work at the trigger instant; a policy
        may ignore it."""
        raise NotImplementedError

    def finish_cycle(self, plan: Any, result: OptimizationResult | None) -> Any:
        """Second half: the cycle's schedule (``decisions``,
        ``unschedulable``, ``stage_seconds``).  ``result`` is ``None``
        exactly when ``plan.task`` was."""
        raise NotImplementedError

    def schedule(
        self,
        jobs: list[QuantumJob],
        qpus: list[QPU],
        waiting_seconds: QueuedSeconds | None = None,
    ) -> Any:
        """One full cycle, stages fused — for callers outside a
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
    missing = [
        name
        for name in ("spawn", "begin_cycle", "finish_cycle")
        if getattr(type(policy), name) is getattr(SchedulingPolicy, name)
    ]
    if missing:
        raise TypeError(
            f"{owner}: {type(policy).__name__} does not define {', '.join(missing)}"
        )
    return policy
