"""Classical task scheduling: Kubernetes-style filter-scoring (§7).

Classical (pre/post-processing) tasks are matched to worker nodes in two
stages: *filter* removes nodes that cannot satisfy the request (cores,
memory, accelerators), *score* ranks the survivors least-allocated first,
like kube-scheduler's NodeResourcesFit.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ClassicalNode", "ClassicalRequest", "ClassicalScheduler"]


@dataclass
class ClassicalNode:
    """One classical worker node's capacity and current allocation."""

    name: str
    cores: int
    memory_gb: float
    gpus: int = 0
    tier: str = "standard_vm"
    alloc_cores: int = 0
    alloc_memory_gb: float = 0.0
    alloc_gpus: int = 0

    @property
    def free_cores(self) -> int:
        return self.cores - self.alloc_cores

    @property
    def free_memory_gb(self) -> float:
        return self.memory_gb - self.alloc_memory_gb

    @property
    def free_gpus(self) -> int:
        return self.gpus - self.alloc_gpus

    def allocate(self, req: "ClassicalRequest") -> None:
        self.alloc_cores += req.cores
        self.alloc_memory_gb += req.memory_gb
        self.alloc_gpus += req.gpus

    def release(self, req: "ClassicalRequest") -> None:
        self.alloc_cores = max(0, self.alloc_cores - req.cores)
        self.alloc_memory_gb = max(0.0, self.alloc_memory_gb - req.memory_gb)
        self.alloc_gpus = max(0, self.alloc_gpus - req.gpus)


@dataclass(frozen=True)
class ClassicalRequest:
    """Resource request of one classical task (the YAML limits of Listing 1)."""

    cores: int = 1
    memory_gb: float = 2.0
    gpus: int = 0
    tier: str | None = None  # require a specific VM tier


def _least_allocated_score(node: ClassicalNode, req: ClassicalRequest) -> float:
    """Higher = better: prefer the emptiest node (spreads load)."""
    cpu_frac = (node.free_cores - req.cores) / max(1, node.cores)
    mem_frac = (node.free_memory_gb - req.memory_gb) / max(1e-9, node.memory_gb)
    return cpu_frac + mem_frac


class ClassicalScheduler:
    """Two-stage filter/score scheduler over a node pool."""

    def __init__(self, nodes: list[ClassicalNode]):
        self.nodes = list(nodes)

    def filter(self, req: ClassicalRequest) -> list[ClassicalNode]:
        out = []
        for node in self.nodes:
            if node.free_cores < req.cores:
                continue
            if node.free_memory_gb < req.memory_gb:
                continue
            if node.free_gpus < req.gpus:
                continue
            if req.tier is not None and node.tier != req.tier:
                continue
            out.append(node)
        return out

    def schedule(self, req: ClassicalRequest) -> ClassicalNode | None:
        """Pick and allocate the best node; ``None`` when nothing fits."""
        candidates = self.filter(req)
        if not candidates:
            return None
        best = max(candidates, key=lambda n: _least_allocated_score(n, req))
        best.allocate(req)
        return best

    def release(self, node_name: str, req: ClassicalRequest) -> None:
        for node in self.nodes:
            if node.name == node_name:
                node.release(req)
                return
        raise KeyError(f"unknown node {node_name!r}")
