"""Dynamic QPU availability: maintenance windows and correlated outages.

The paper's cloud model assumes a static, always-online fleet, yet its
own motivation (queue imbalance, calibration-driven quality swings)
implies devices come and go: providers schedule maintenance, devices
fail and recover mid-run.  :class:`AvailabilityModel` turns planned
offline windows into a deterministic, pre-computed stream of
:class:`AvailabilityEvent`\\ s that the cloud simulator folds into its
event heap, flipping each :attr:`QPU.online
<repro.backends.qpu.QPU.online>` flag at the event's simulated
timestamp; :func:`flash_outage` builds the correlated-failure case.

Semantics:

* An offline device accepts **no new assignments** — shard feasibility
  (:meth:`FleetShard.fits <repro.cloud.fleet.FleetShard.fits>`),
  balancer routing, scheduler preprocessing, and the baseline policies
  are all online-aware.  Work already dispatched to the device keeps its
  committed finish time (the execution model assigns finish times at
  dispatch), modeling jobs that drain before the window starts.  Jobs
  *pending* on a shard whose feasible devices are transiently offline
  stay queued until recovery (or migration) and the shard's next cycle;
  only jobs no device in the shard could ever serve are failed.
* Per QPU, windows are merged into disjoint offline intervals before
  events are emitted, so the flag never flaps inside an overlap and
  every offline event has exactly one matching recovery (or none, when
  the device stays down through the end of the run).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

__all__ = [
    "AvailabilityEvent",
    "MaintenanceWindow",
    "AvailabilityModel",
    "flash_outage",
]


@dataclass(frozen=True)
class AvailabilityEvent:
    """One availability flip: ``qpu_name`` goes on/offline at ``time``."""

    time: float
    qpu_name: str
    online: bool


@dataclass(frozen=True)
class MaintenanceWindow:
    """A scheduled offline interval ``[start, end)`` for one device.

    ``start`` must be finite and ``end > start``; an infinite ``end``
    keeps the device down through the end of the run.
    """

    qpu_name: str
    start: float
    end: float

    def __post_init__(self) -> None:
        # Written so NaN fails: ``end <= start`` is False for a NaN bound,
        # which would drop the window (NaN start) or never recover the
        # device (NaN end).
        owner = f"maintenance window on {self.qpu_name!r}"
        if not math.isfinite(self.start):
            raise ValueError(f"{owner}: start must be finite, got {self.start!r}")
        if not self.end > self.start:
            raise ValueError(
                f"{owner}: end must be > start ({self.start!r}), got {self.end!r}"
            )


def _merge_intervals(
    intervals: list[tuple[float, float]],
) -> list[tuple[float, float]]:
    """Union of ``(start, end)`` intervals."""
    merged: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


class AvailabilityModel:
    """Deterministic availability schedule over a fleet, from planned
    :class:`MaintenanceWindow`\\ s (any order)."""

    def __init__(self, *, windows: Sequence[MaintenanceWindow] = ()) -> None:
        self.windows = list(windows)

    def schedule(
        self, qpu_names: Sequence[str], duration: float
    ) -> list[AvailabilityEvent]:
        """All availability flips inside ``[0, duration)``, time-ordered.

        Offline intervals per device are the union of its windows; a
        recovery event is emitted only when the interval ends inside the
        horizon.
        """
        by_name: dict[str, list[tuple[float, float]]] = {
            name: [] for name in qpu_names
        }
        unknown = sorted({
            w.qpu_name for w in self.windows if w.qpu_name not in by_name
        })
        if unknown:
            raise ValueError(
                f"maintenance windows name unknown QPUs {unknown}; "
                f"fleet has {sorted(by_name)}"
            )
        for w in self.windows:
            if w.start < duration:
                by_name[w.qpu_name].append((w.start, w.end))

        events: list[AvailabilityEvent] = []
        for name, intervals in by_name.items():
            for start, end in _merge_intervals(intervals):
                events.append(AvailabilityEvent(start, name, False))
                if end < duration:
                    events.append(AvailabilityEvent(end, name, True))
        # Offline before online at identical timestamps, then by name, so
        # the fold order is reproducible whatever dict order produced it.
        events.sort(key=lambda e: (e.time, e.online, e.qpu_name))
        return events


def flash_outage(
    qpu_names: Sequence[str], *, start: float, duration_seconds: float
) -> AvailabilityModel:
    """A model that takes ``qpu_names`` down together for one window.

    The worst-case correlated failure (shared cryostat, network cut):
    every named device goes offline at ``start`` and recovers
    ``duration_seconds`` later.
    """
    return AvailabilityModel(
        windows=[
            MaintenanceWindow(name, start, start + duration_seconds)
            for name in qpu_names
        ]
    )
