"""The Qonductor API (§5, Table 2).

Four user-facing operations — ``create_workflow``, ``deploy``, ``invoke``,
``workflow_results`` (plus ``workflow_status`` for polling, as in Listing
2).  :class:`Qonductor` holds what *describes* a deployment and owns no
execution logic: ``invoke`` walks the workflow's DAG, places classical
steps, and runs each quantum step as one arrival through a single-shot
:class:`~repro.cloud.CloudSimulator`, reading the result off the
dispatched job record (docs/ARCHITECTURE.md, "The API surface").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ..backends.fleet import default_fleet
from ..backends.qpu import QPU
from ..circuits.metrics import compute_metrics
from ..cloud.backend_sim import SimulatedQPU
from ..cloud.execution import ExecutionModel
from ..cloud.fleet import FleetShard
from ..cloud.job import HybridApplication, JobStatus, QuantumJob
from ..cloud.simulator import CloudSimulator, SimulationConfig
from ..estimator.estimator import ResourceEstimator
from ..estimator.plans import ResourcePlan
from ..scheduler.classical import ClassicalNode, ClassicalRequest, ClassicalScheduler
from ..scheduler.quantum import QonductorScheduler
from ..scheduler.triggers import SchedulingTrigger
from .images import ExecutionConfig, HybridWorkflowImage
from .registry import WorkflowRegistry
from .workflow import HybridWorkflow, StepKind, WorkflowStep

__all__ = ["Qonductor", "WorkflowRun", "WorkflowStatus", "step_seed"]


class WorkflowStatus(str, Enum):
    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"


@dataclass
class WorkflowRun:
    """Execution state of one deployed workflow."""

    workflow: HybridWorkflow
    run_id: int
    status: WorkflowStatus = WorkflowStatus.PENDING
    step_results: dict[int, dict] = field(default_factory=dict)
    elapsed_seconds: float | None = None
    error: str | None = None

    @property
    def results(self) -> dict:
        return {
            "status": self.status.value,
            "steps": {sid: dict(res) for sid, res in self.step_results.items()},
            "elapsed_seconds": self.elapsed_seconds,
            "error": self.error,
        }


class _StepFailed(Exception):
    """What a step reports to its client: the run ends ``failed`` with
    this message.  Anything else raised under ``invoke`` is a bug."""


def step_seed(deployment_seed: int, workflow_id: int, step_ordinal: int) -> int:
    """One quantum step's execution seed — a pure function of identity,
    like :func:`~repro.scheduler.cycle.cycle_seed`: two steps never replay
    one noise stream, whatever the steps before them drew."""
    entropy = (deployment_seed, workflow_id, step_ordinal)
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


class Qonductor:
    """An in-process Qonductor deployment over a (simulated) hybrid cluster."""

    def __init__(
        self,
        fleet: list[QPU] | None = None,
        *,
        preference: str = "balanced",
        estimator_records: int = 800,
        seed: int = 0,
    ) -> None:
        self.fleet = fleet if fleet is not None else default_fleet(seed=seed)
        self.execution_model = ExecutionModel(seed=seed)
        self.estimator = ResourceEstimator.train_for_fleet(
            self.fleet,
            num_records=estimator_records,
            execution_model=self.execution_model,
            seed=seed,
        )
        self.registry = WorkflowRegistry()
        #: Every step's simulator runs over these: device state carries over.
        self.backends = [SimulatedQPU(q) for q in self.fleet]
        #: Two standard VMs and one high-end VM.
        self.classical_scheduler = ClassicalScheduler([
            ClassicalNode("vm-std-0", cores=16, memory_gb=64, tier="standard_vm"),
            ClassicalNode("vm-std-1", cores=16, memory_gb=64, tier="standard_vm"),
            ClassicalNode("vm-hi-0", cores=64, memory_gb=512, gpus=4, tier="highend_vm"),
        ])
        cached = self.estimator.cached()
        self.scheduler = QonductorScheduler(cached, preference=preference, seed=seed)
        #: Simulated time: an invoke starts here and moves it to its finish.
        self.clock = 0.0
        self._seed = seed
        self._runs: dict[int, WorkflowRun] = {}  # by workflow ID: 1, 2, ...

    # -- Table 2: the four user-facing operations ----------------------
    def create_workflow(
        self,
        steps_or_workflow,
        config: dict | ExecutionConfig | None = None,
        *,
        name: str = "workflow",
    ) -> str:
        """Package steps (or a prebuilt DAG) + config into a registry image."""
        workflow = steps_or_workflow
        if not isinstance(workflow, HybridWorkflow):
            workflow = HybridWorkflow.linear(name, list(workflow))
        if not isinstance(config, ExecutionConfig):
            config = ExecutionConfig.from_dict(config or {})
        return self.registry.register(HybridWorkflowImage(workflow, config))

    def deploy(self, image_key: str) -> int:
        """Validate an image against the cluster; returns a workflow ID.
        A refused image (an empty workflow, a step or a config
        wider than every QPU) raises ``ValueError`` and registers nothing."""
        image = self.registry.get(image_key)
        workflow = image.workflow
        workflow.validate()
        max_width = max(q.num_qubits for q in self.fleet)
        needs = [(f"step {s.name!r}", s.circuit.num_qubits) for s in workflow.quantum_steps()]
        for what, width in [*needs, ("the execution config", image.config.min_qubits)]:
            if width > max_width:
                raise ValueError(f"{what} needs {width} qubits; largest QPU has {max_width}")
        run = WorkflowRun(workflow, len(self._runs) + 1)
        self._runs[run.run_id] = run
        return run.run_id

    def invoke(self, image_key: str) -> int:
        """Deploy + execute an image; returns the workflow ID.  A step is
        ready when its last predecessor finishes (a root: at the
        deployment clock), so DAG-parallel branches overlap in time."""
        run = self._runs[self.deploy(image_key)]
        run.status = WorkflowStatus.RUNNING
        start, done = self.clock, run.step_results
        try:
            for ordinal, step in enumerate(run.workflow.topological_steps()):
                ready = max(
                    (done[p.step_id]["finish_time"] for p in run.workflow.predecessors(step)),
                    default=start,
                )
                if step.kind is StepKind.CLASSICAL:
                    done[step.step_id] = self._run_classical(step, ready)
                else:
                    seed = step_seed(self._seed, run.run_id, ordinal)
                    done[step.step_id] = self._run_quantum(step, ready, seed)
            run.status = WorkflowStatus.COMPLETED
        except _StepFailed as exc:
            run.status, run.error = WorkflowStatus.FAILED, str(exc)
        self.clock = max((res["finish_time"] for res in done.values()), default=start)
        run.elapsed_seconds = self.clock - start
        return run.run_id

    def _run_classical(self, step: WorkflowStep, ready: float) -> dict:
        needs = step.requirements
        req = ClassicalRequest(
            int(needs.get("cores", 1)),
            float(needs.get("memory_gb", 2.0)),
            int(needs.get("gpus", 0)),
        )
        node = self.classical_scheduler.schedule(req)
        if node is None:
            raise _StepFailed(f"no classical node satisfies step {step.name!r}")
        try:
            output = None if step.fn is None else step.fn()
        except Exception as exc:  # user code: whatever it raises is the step's
            raise _StepFailed(f"classical step {step.name!r} raised {exc!r}") from exc
        finally:
            self.classical_scheduler.release(node.name, req)
        seconds = float(needs.get("seconds", 1.0))
        return dict(
            kind="classical", name=step.name, node=node.name, seconds=seconds,
            output=output, start_time=ready, finish_time=ready + seconds,
        )  # fmt: skip

    def _run_quantum(self, step: WorkflowStep, ready: float, seed: int) -> dict:
        """One arrival at ``ready`` through a single-shot simulator over
        the deployment's devices and policy.  The trigger fires on the
        arrival and has no deadline before it; the horizon ends right
        after it: dispatch fills the job record, which is all this reads."""
        job = QuantumJob.from_circuit(step.circuit, step.shots, step.mitigation)
        horizon = math.nextafter(ready, math.inf)
        trigger = SchedulingTrigger(queue_limit=1, interval_seconds=horizon)
        shard = FleetShard(0, self.backends, self.scheduler, trigger)
        config = SimulationConfig(horizon, sample_every_seconds=horizon, seed=seed)
        CloudSimulator(
            shards=[shard], execution_model=self.execution_model, config=config
        ).run([HybridApplication(job, arrival_time=ready)])
        if job.status is not JobStatus.COMPLETED:
            raise _StepFailed(f"no QPU took quantum step {step.name!r} ({job.num_qubits} qubits)")
        qpu = shard.backend_by_name[job.assigned_qpu].qpu
        [(_, est_fidelity)] = self.scheduler.estimate_fn.best_fidelity([job], [qpu])
        return dict(
            kind="quantum", name=step.name, qpu=job.assigned_qpu,
            est_fidelity=est_fidelity, fidelity=job.fidelity,
            quantum_seconds=job.quantum_seconds, shots=step.shots,
            mitigation=step.mitigation, start_time=job.start_time,
            finish_time=job.finish_time,
        )  # fmt: skip

    def workflow_status(self, workflow_id: int) -> str:
        return self.workflow_results(workflow_id)["status"]

    def workflow_results(self, workflow_id: int) -> dict:
        if workflow_id not in self._runs:
            raise KeyError(f"unknown workflow {workflow_id}")
        return self._runs[workflow_id].results

    def estimate_resources(self, circuit, shots: int = 4000, **kwargs) -> list[ResourcePlan]:
        """Table 2's "estimate the hybrid resources required"."""
        return self.estimator.generate_plans(compute_metrics(circuit), shots, **kwargs)

    def quantum_step(
        self, circuit, *, name: str = "quantum", shots: int = 4000, mitigation: str = "none"
    ) -> WorkflowStep:
        """Convenience constructor for a quantum step."""
        return WorkflowStep(name, StepKind.QUANTUM, circuit, shots, mitigation)

    def classical_step(
        self, fn=None, *, name: str = "classical", seconds: float = 1.0, **requirements
    ) -> WorkflowStep:
        """Convenience constructor for a classical step."""
        requirements = {"seconds": seconds, **requirements}
        return WorkflowStep(name, StepKind.CLASSICAL, fn=fn, requirements=requirements)
