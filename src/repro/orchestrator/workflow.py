"""Hybrid workflow representation (§5).

A workflow is a DAG of classical and quantum steps with data dependencies —
what the workflow manager builds when it "splits a Python file into quantum
and classical code files ... and creates a directed acyclic graph". Here
steps are callables/specs composed programmatically (the Listing 2 style),
and the DAG gives ``Qonductor.invoke`` its execution order and ready times.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

import networkx as nx

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
    fn: object | None = None
    requirements: dict = field(default_factory=dict)
    step_id: int = field(default_factory=lambda: next(_step_ids))

    def __post_init__(self) -> None:
        if self.kind == StepKind.QUANTUM and self.circuit is None:
            raise ValueError(f"quantum step {self.name!r} needs a circuit")


class HybridWorkflow:
    """A DAG of :class:`WorkflowStep` with explicit data-flow edges."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.graph = nx.DiGraph()

    def add_step(self, step: WorkflowStep, after: list[WorkflowStep] | None = None):
        """Add ``step``, depending on every step in ``after``. A step enters
        once, after its dependencies, so no call can close a cycle."""
        if step.step_id in self.graph:
            raise ValueError(f"step {step.name!r} is already in workflow {self.name!r}")
        deps = after or []
        for dep in deps:
            if dep.step_id not in self.graph:
                raise ValueError(f"dependency {dep.name!r} not in workflow")
        self.graph.add_node(step.step_id, step=step)
        for dep in deps:
            self.graph.add_edge(dep.step_id, step.step_id)
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
        return [self.graph.nodes[n]["step"] for n in self.graph.nodes]

    def topological_steps(self) -> list[WorkflowStep]:
        return [self.graph.nodes[n]["step"] for n in nx.topological_sort(self.graph)]

    def quantum_steps(self) -> list[WorkflowStep]:
        return [s for s in self.steps if s.kind == StepKind.QUANTUM]

    def predecessors(self, step: WorkflowStep) -> list[WorkflowStep]:
        return [
            self.graph.nodes[n]["step"] for n in self.graph.predecessors(step.step_id)
        ]

    def validate(self) -> None:
        if self.graph.number_of_nodes() == 0:
            raise ValueError("workflow is empty")
        if not nx.is_directed_acyclic_graph(self.graph):
            raise ValueError("workflow graph has cycles")
