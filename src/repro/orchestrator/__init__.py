"""Qonductor orchestrator: the data plane (workflows, images, registry) and
the four-call API over the estimator, the schedulers and the cloud engine."""

from .api import Qonductor, WorkflowRun, WorkflowStatus
from .images import ExecutionConfig, HybridWorkflowImage, ResourceRequest
from .registry import WorkflowRegistry
from .workflow import HybridWorkflow, StepKind, WorkflowStep

__all__ = [
    "HybridWorkflow",
    "StepKind",
    "WorkflowStep",
    "ExecutionConfig",
    "HybridWorkflowImage",
    "ResourceRequest",
    "WorkflowRegistry",
    "WorkflowRun",
    "WorkflowStatus",
    "Qonductor",
]
