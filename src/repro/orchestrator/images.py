"""Hybrid workflow images and execution configuration (§5, Listing 1).

An image packages a workflow's graph model, code payloads, and the user's
execution configuration (resource requests like "one GPU" or "a QPU with
>= 20 qubits") into a reusable artifact stored in the workflow registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .workflow import HybridWorkflow

__all__ = ["ResourceRequest", "ExecutionConfig", "HybridWorkflowImage"]

#: Preferences an image does not carry, and where each one is set.
_SET_ELSEWHERE = {
    "preference": "Qonductor(preference=)",
    "preferred_models": "estimate_resources(models=)",
    "num_plans": "estimate_resources(num_plans=)",
    "min_fidelity": "estimate_resources(min_fidelity=)",
}


@dataclass(frozen=True)
class ResourceRequest:
    """One container's resource limits (a Listing-1 ``resources`` block)."""

    qpus: int = 0
    min_qubits: int = 0
    gpus: int = 0
    cores: int = 1
    memory_gb: float = 2.0

    def __post_init__(self) -> None:
        if self.qpus < 0 or self.gpus < 0 or self.min_qubits < 0:
            raise ValueError("resource counts must be non-negative")


@dataclass
class ExecutionConfig:
    """User preferences attached to a deployment (Listing 1's YAML)."""

    requests: list[ResourceRequest] = field(default_factory=list)

    @classmethod
    def from_dict(cls, data: dict) -> "ExecutionConfig":
        """Parse the dict form of a YAML deployment file; a key no
        deployment would honour is refused, naming where it is set."""
        for key, where in _SET_ELSEWHERE.items():
            if key in data:
                raise ValueError(
                    f"execution config key {key!r} is not read from a "
                    f"deployment file; set it with {where}"
                )
        requests = []
        for container in data.get("spec", {}).get("containers", []):
            limits = container.get("resources", {}).get("limits", {})
            qpus = sum(v for k, v in limits.items() if "qpu" in k.lower())
            gpus = sum(v for k, v in limits.items() if "gpu" in k.lower())
            requests.append(
                ResourceRequest(
                    qpus=int(qpus),
                    min_qubits=int(limits.get("qubits", 0)),
                    gpus=int(gpus),
                    cores=int(limits.get("cores", 1)),
                    memory_gb=float(limits.get("memory_gb", 2.0)),
                )
            )
        return cls(requests=requests)

    @property
    def min_qubits(self) -> int:
        return max((r.min_qubits for r in self.requests), default=0)


@dataclass
class HybridWorkflowImage:
    """A deployable workflow artifact."""

    workflow: HybridWorkflow
    config: ExecutionConfig
    tag: str = "latest"

    @property
    def name(self) -> str:
        return f"{self.workflow.name}:{self.tag}"
