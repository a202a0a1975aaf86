"""Hybrid scheduling (§7): the NSGA-II/MCDM quantum scheduler, the
filter-score classical scheduler, baseline policies and triggers — every
policy a :class:`SchedulingPolicy`."""

from .classical import ClassicalNode, ClassicalRequest, ClassicalScheduler
from .cycle import (
    OptimizationResult,
    OptimizationTask,
    cycle_seed,
    run_optimization,
)
from .formulation import SchedulingInput, SchedulingProblem
from .policies import BatchedFCFSPolicy, FCFSPolicy
from .policy import SchedulingPolicy
from .quantum import (
    CyclePlan,
    QonductorScheduler,
    QuantumSchedule,
    ScheduleDecision,
)
from .triggers import SchedulingTrigger

__all__ = [
    "SchedulingInput",
    "SchedulingProblem",
    "SchedulingPolicy",
    "QonductorScheduler",
    "QuantumSchedule",
    "ScheduleDecision",
    "CyclePlan",
    "OptimizationTask",
    "OptimizationResult",
    "cycle_seed",
    "run_optimization",
    "ClassicalNode",
    "ClassicalRequest",
    "ClassicalScheduler",
    "FCFSPolicy",
    "BatchedFCFSPolicy",
    "SchedulingTrigger",
]
