"""System monitor (§4): the datastore persisting complete system state.

A watchable key-value store with namespaces for worker nodes, QPU state
(static + dynamic, including calibration), workflow execution status, and
intermediate results — the role etcd plays under Kubernetes in the paper's
implementation. Replication lives in :mod:`repro.orchestrator.raft`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

__all__ = ["SystemMonitor", "WatchEvent"]


@dataclass(frozen=True)
class WatchEvent:
    """One mutation notification."""

    namespace: str
    key: str
    value: Any
    deleted: bool = False


@dataclass
class SystemMonitor:
    """Namespaced KV store with watchers and monotonically versioned writes."""

    _data: dict[str, dict[str, Any]] = field(default_factory=dict)
    _versions: dict[str, dict[str, int]] = field(default_factory=dict)
    _watchers: list[Callable[[WatchEvent], None]] = field(default_factory=list)
    revision: int = 0

    # ------------------------------------------------------------------
    def put(self, namespace: str, key: str, value: Any) -> int:
        """Write; returns the store revision of this write."""
        self.revision += 1
        self._data.setdefault(namespace, {})[key] = value
        ns_ver = self._versions.setdefault(namespace, {})
        ns_ver[key] = self.revision
        self._notify(WatchEvent(namespace, key, value))
        return self.revision

    def get(self, namespace: str, key: str, default: Any = None) -> Any:
        return self._data.get(namespace, {}).get(key, default)

    def version(self, namespace: str, key: str) -> int:
        return self._versions.get(namespace, {}).get(key, 0)

    def delete(self, namespace: str, key: str) -> bool:
        ns = self._data.get(namespace, {})
        if key not in ns:
            return False
        del ns[key]
        self._versions.get(namespace, {}).pop(key, None)
        self.revision += 1
        self._notify(WatchEvent(namespace, key, None, deleted=True))
        return True

    def list_keys(self, namespace: str) -> list[str]:
        return sorted(self._data.get(namespace, {}))

    def items(self, namespace: str) -> dict[str, Any]:
        return dict(self._data.get(namespace, {}))

    def snapshot(self) -> dict:
        """Deep-enough copy for replication to a backup replica."""
        return {
            "revision": self.revision,
            "data": {ns: dict(kv) for ns, kv in self._data.items()},
        }

    def restore(self, snapshot: dict) -> None:
        self.revision = snapshot["revision"]
        self._data = {ns: dict(kv) for ns, kv in snapshot["data"].items()}

    # ------------------------------------------------------------------
    def watch(self, callback: Callable[[WatchEvent], None]) -> None:
        self._watchers.append(callback)

    def _notify(self, event: WatchEvent) -> None:
        for cb in self._watchers:
            cb(event)
