"""The one backend that runs a batch of scheduling-cycle tasks.

A firing trigger batch hands the pure optimization stage of each due
shard's cycle — one :class:`~repro.scheduler.cycle.OptimizationTask`
each — to :meth:`SerialCycleExecutor.run`, which applies the stage to
every task in the calling thread and returns the results **in task
order**; the simulator hands them to each policy's ``finish_cycle`` in
shard-id order at the same trigger instant.  The class is a seam, not a
choice of backend:
a subclass may wrap ``run`` to time or check the stage, and
``CloudSimulator(cycle_executor=...)`` accepts such an instance.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any

__all__ = ["SerialCycleExecutor"]


class SerialCycleExecutor:
    """Run every task of a batch in the calling thread, in order."""

    def run(self, fn: Callable[[Any], Any], tasks: Sequence[Any]) -> list[Any]:
        """Apply ``fn`` to every task, returning results in task order."""
        return [fn(task) for task in tasks]
