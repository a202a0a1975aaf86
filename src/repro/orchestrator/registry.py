"""Workflow registry (§5): a versioned repository of hybrid workflow images."""

from __future__ import annotations

from .images import HybridWorkflowImage

__all__ = ["WorkflowRegistry"]


class WorkflowRegistry:
    """In-memory image store keyed by ``name:tag``."""

    def __init__(self) -> None:
        self._images: dict[str, HybridWorkflowImage] = {}

    def register(self, image: HybridWorkflowImage) -> str:
        """Store ``image``; returns its registry key."""
        key = image.name
        self._images[key] = image
        return key

    def get(self, key: str) -> HybridWorkflowImage:
        if key not in self._images:
            # Allow untagged lookups of :latest images.
            latest = f"{key}:latest"
            if latest in self._images:
                return self._images[latest]
            raise KeyError(f"no image {key!r} in registry")
        return self._images[key]

    def remove(self, key: str) -> None:
        if key not in self._images:
            raise KeyError(f"no image {key!r} in registry")
        del self._images[key]

    def __len__(self) -> int:
        return len(self._images)

    def __contains__(self, key: str) -> bool:
        return key in self._images or f"{key}:latest" in self._images
