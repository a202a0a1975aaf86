"""Scheduling triggers (§7): queue-size and time-based invocation.

A trigger holds one fact, the instant its shard's last cycle fired; the
simulator calls :meth:`fired` when a cycle runs (or an idle deadline
passes) and pushes the next interval deadline from there.  Deadline
entries pushed before that go stale naturally — they no longer equal
:meth:`next_deadline` — and the simulator skips them when they pop.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SchedulingTrigger"]


@dataclass
class SchedulingTrigger:
    """Fires when the pending queue reaches ``queue_limit`` jobs or when
    ``interval_seconds`` have elapsed since the last cycle — the paper's
    defaults are 100 jobs / 120 s."""

    queue_limit: int = 100
    interval_seconds: float = 120.0
    _last_fired: float = 0.0

    def __post_init__(self) -> None:
        # A non-positive interval re-arms its deadline at the same
        # instant forever, so CloudSimulator.run() would never return.
        if not self.interval_seconds > 0:
            raise ValueError(
                f"interval_seconds must be > 0, got {self.interval_seconds!r}"
            )
        if self.queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {self.queue_limit!r}")

    def should_fire(self, queue_size: int, now: float) -> bool:
        if queue_size <= 0:
            return False
        if queue_size >= self.queue_limit:
            return True
        return (now - self._last_fired) >= self.interval_seconds

    def fired(self, now: float) -> None:
        self._last_fired = now

    def next_deadline(self, now: float) -> float:
        return self._last_fired + self.interval_seconds
