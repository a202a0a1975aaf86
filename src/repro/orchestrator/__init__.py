"""Qonductor orchestrator: data plane (workflows, images, registry),
control plane (API, job manager, monitor, Raft replicas), and workers."""

from .api import Qonductor
from .images import ExecutionConfig, HybridWorkflowImage, ResourceRequest
from .job_manager import JobManager, WorkflowRun, WorkflowStatus
from .monitor import SystemMonitor, WatchEvent
from .raft import RaftCluster, RaftNode, Role
from .registry import WorkflowRegistry
from .workers import ClassicalWorker, DeviceManager, QuantumWorker
from .workflow import HybridWorkflow, StepKind, WorkflowStep

__all__ = [
    "HybridWorkflow",
    "StepKind",
    "WorkflowStep",
    "ExecutionConfig",
    "HybridWorkflowImage",
    "ResourceRequest",
    "WorkflowRegistry",
    "SystemMonitor",
    "WatchEvent",
    "RaftCluster",
    "RaftNode",
    "Role",
    "ClassicalWorker",
    "DeviceManager",
    "QuantumWorker",
    "JobManager",
    "WorkflowRun",
    "WorkflowStatus",
    "Qonductor",
]
