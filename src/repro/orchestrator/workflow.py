"""Hybrid workflow representation (§5).

A workflow is a DAG of classical and quantum steps with data dependencies —
what the workflow manager builds when it "splits a Python file into quantum
and classical code files ... and creates a directed acyclic graph". Here
steps are callables/specs composed programmatically (the Listing 2 style),
and the DAG gives ``Qonductor.invoke`` its execution order and ready times.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

from ..circuits.circuit import Circuit

__all__ = ["StepKind", "WorkflowStep", "HybridWorkflow"]

_step_ids = itertools.count()


class StepKind(str, Enum):
    CLASSICAL = "classical"
    QUANTUM = "quantum"


@dataclass
class WorkflowStep:
    """One node of the hybrid DAG."""

    name: str
    kind: StepKind
    # A quantum step carries a circuit + execution knobs; a classical one a
    # zero-argument payload and its resource ``requirements``.
    circuit: Circuit | None = None
    shots: int = 4000
    mitigation: str = "none"
    fn: Callable[[], object] | None = None
    requirements: dict = field(default_factory=dict)
    step_id: int = field(default_factory=lambda: next(_step_ids))

    def __post_init__(self) -> None:
        if self.kind == StepKind.QUANTUM and self.circuit is None:
            raise ValueError(f"quantum step {self.name!r} needs a circuit")
        where = f"step {self.name!r}"
        if self.fn is not None and not callable(self.fn):
            raise ValueError(f"{where}: fn must be None or callable, got {self.fn!r}")
        seconds = self.requirements.get("seconds", 1.0)
        if not (math.isfinite(seconds) and seconds >= 0):
            raise ValueError(f"{where}: seconds must be finite and >= 0, got {seconds!r}")
        for key in ("cores", "memory_gb", "gpus"):
            value = self.requirements.get(key, 0)
            if not value >= 0:  # NaN fails too
                raise ValueError(f"{where}: {key} must be >= 0, got {value!r}")


class HybridWorkflow:
    """A DAG of :class:`WorkflowStep` with explicit data-flow edges."""

    def __init__(self, name: str) -> None:
        self.name = name
        # Both by step id, in insertion order; a step's predecessors in
        # first-seen ``after`` order, a repeated dependency once.
        self._steps: dict[int, WorkflowStep] = {}
        self._after: dict[int, list[WorkflowStep]] = {}

    def add_step(self, step: WorkflowStep, after: list[WorkflowStep] | None = None):
        """Add ``step``, depending on every step in ``after``. A step enters
        once, after its dependencies, so no call can close a cycle."""
        if step.step_id in self._steps:
            raise ValueError(f"step {step.name!r} is already in workflow {self.name!r}")
        deps = after or []
        for dep in deps:
            if dep.step_id not in self._steps:
                raise ValueError(f"dependency {dep.name!r} not in workflow")
        self._steps[step.step_id] = step
        self._after[step.step_id] = list({dep.step_id: dep for dep in deps}.values())
        return step

    @classmethod
    def linear(cls, name: str, steps: list[WorkflowStep]) -> "HybridWorkflow":
        """The common pre -> quantum -> post chain (Listing 2's shape)."""
        wf = cls(name)
        prev: WorkflowStep | None = None
        for step in steps:
            wf.add_step(step, after=[prev] if prev else None)
            prev = step
        return wf

    @property
    def steps(self) -> list[WorkflowStep]:
        return list(self._steps.values())

    def topological_steps(self) -> list[WorkflowStep]:
        """Kahn's order by generations: the roots in insertion order, then
        each step once the last of its predecessors is taken, a step's
        successors in insertion order.  ``invoke`` keys a quantum step's
        seed on its position here, so the order is part of the contract
        (held to a ``DiGraph.topological_sort`` replay in the tests)."""
        successors: dict[int, list[int]] = {sid: [] for sid in self._steps}
        waiting = {}
        for sid, deps in self._after.items():
            waiting[sid] = len(deps)
            for dep in deps:
                successors[dep.step_id].append(sid)
        order = [sid for sid, count in waiting.items() if count == 0]
        for sid in order:  # grows as steps are released
            for child in successors[sid]:
                waiting[child] -= 1
                if waiting[child] == 0:
                    order.append(child)
        return [self._steps[sid] for sid in order]

    def quantum_steps(self) -> list[WorkflowStep]:
        return [s for s in self.steps if s.kind == StepKind.QUANTUM]

    def predecessors(self, step: WorkflowStep) -> list[WorkflowStep]:
        return list(self._after[step.step_id])

    def validate(self) -> None:
        if not self._steps:
            raise ValueError("workflow is empty")
