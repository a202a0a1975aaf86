"""Scheduling triggers (§7): queue-size and time-based invocation.

Deferred-trigger contract (pipelined engine): while a shard has a cycle
in flight, the simulator drops the shard's trigger pops instead of
firing a second overlapping cycle; the fold calls :meth:`fired` at the
fold instant and re-arms the next interval deadline from there.  Any
deadline entries pushed before the fold go stale naturally — they no
longer equal :meth:`next_deadline`.

ε-window coalescing uses a *hold*: when a shard becomes eligible on the
arrival path and ``trigger_epsilon > 0``, the simulator schedules the
actual firing ε later and records that instant in ``hold_until``, so
other shards becoming eligible inside the window merge into one engine
batch.  One pending hold per shard; a TRIGGER event is the shard's hold
exactly when its time equals ``hold_until``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SchedulingTrigger"]


@dataclass
class SchedulingTrigger:
    """Fires when the pending queue reaches ``queue_limit`` jobs or when
    ``interval_seconds`` have elapsed since the last cycle — the paper's
    defaults are 100 jobs / 120 s."""

    queue_limit: int = 100
    interval_seconds: float = 120.0
    _last_fired: float = 0.0
    #: Instant of the armed ε-window hold, ``None`` when none is pending.
    hold_until: float | None = field(default=None, init=False, repr=False)

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
