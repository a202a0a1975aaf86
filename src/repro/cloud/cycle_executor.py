"""Execution backends for concurrently-due scheduling cycles.

The paper's stage-runtime breakdown (Fig. 9c) shows NSGA-II dominating a
scheduling cycle, and a sharded fleet runs one cycle per shard — naturally
independent units of work once the optimization stage is a pure function
of its :class:`~repro.scheduler.cycle.OptimizationTask` snapshot.  A
:class:`CycleExecutor` runs one batch of such tasks and returns results
**in task order**, so the simulator folds them back deterministically no
matter which worker finished first.

Backends:

* :class:`SerialCycleExecutor` — run in the calling thread (the default;
  zero overhead, the reference semantics every other backend must match
  bit-for-bit).
* :class:`ThreadCycleExecutor` — a shared ``ThreadPoolExecutor``.  Cheap
  to spin up and exercises the full parallel control flow, but NSGA-II is
  Python-loop heavy, so the GIL caps the speedup; use it to *test* the
  parallel path more than to accelerate it.
* :class:`ProcessCycleExecutor` — a ``ProcessPoolExecutor`` (``fork``
  start method where the platform offers it, ``spawn`` otherwise — tasks
  and the worker function are picklable and importable by name either
  way).  This is the backend that actually buys wall-clock on multi-core
  hosts: each cycle's matrices are small to ship and the optimization
  stage is hundreds of milliseconds of pure NumPy work.

One calling convention: ``submit(fn, tasks) -> handle`` hands the batch
to the backend and returns an opaque :class:`CycleHandle`;
``result(handle)`` blocks until the batch is done and returns results in
task order.  The serial backend resolves at submit time (there is no
other thread to overlap with), pooled backends return pending futures.
A caller whose ``result`` follows at once — nothing can overlap — passes
``inline_single=True`` so a one-task batch (one shard firing on its
queue limit, the common arrival-path cycle) never pays pool overhead;
the simulator derives that from its modeled cycle latency.  ``run(fn,
tasks)`` is the blocking shorthand for exactly that.

Selection: pass a backend name (``"serial"`` / ``"thread"`` /
``"process"``, optionally ``"thread:8"`` for a worker count) or an
instance to the simulator, or set the ``CYCLE_EXECUTOR`` environment
variable to pick one fleet-wide (CI runs the tier-1 suite under
``CYCLE_EXECUTOR=thread`` so the parallel path is exercised on every
push).
"""

from __future__ import annotations

import os
from collections.abc import Callable, Sequence
from concurrent.futures import (
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Any

#: The worker-function shape every backend ships: one task in, one
#: result out (pure, picklable by name).
CycleFn = Callable[[Any], Any]

__all__ = [
    "CycleFn",
    "CycleExecutor",
    "CycleHandle",
    "SerialCycleExecutor",
    "ThreadCycleExecutor",
    "ProcessCycleExecutor",
    "make_cycle_executor",
]

#: Environment variable naming the default backend (e.g. ``thread:4``).
CYCLE_EXECUTOR_ENV = "CYCLE_EXECUTOR"


class CycleHandle:
    """Opaque receipt for a submitted batch; redeem via ``result()``.

    Exactly one of ``futures`` / ``results`` is set: pooled backends
    carry one future per task, the serial backend carries the already
    computed results.
    """

    __slots__ = ("futures", "results")

    def __init__(
        self,
        futures: list[Future[Any]] | None = None,
        results: list[Any] | None = None,
    ) -> None:
        self.futures = futures
        self.results = results

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "resolved" if self.results is not None else "pending"
        return f"CycleHandle({state})"


class CycleExecutor:
    """Runs one batch of pure cycle tasks; results come back in order."""

    name = "base"

    def run(self, fn: CycleFn, tasks: Sequence[Any]) -> list[Any]:
        """Apply ``fn`` to every task, returning results in task order."""
        return self.result(self.submit(fn, tasks, inline_single=True))

    def submit(
        self, fn: CycleFn, tasks: Sequence[Any], *, inline_single: bool = False
    ) -> CycleHandle:
        """Start a batch without waiting for it; redeem via ``result``.

        ``inline_single`` states that ``result`` follows immediately, so
        a one-task batch may run in the calling thread.
        """
        raise NotImplementedError

    def result(self, handle: CycleHandle) -> list[Any]:
        """Block until a submitted batch is done; results in task order."""
        if handle.results is not None:
            return handle.results
        handle.results = [future.result() for future in handle.futures]
        handle.futures = None
        return handle.results

    def close(self) -> None:
        """Release worker resources (idempotent; pools rebuild lazily).

        Pooled backends wait for in-flight futures first, so a handle
        submitted before ``close`` can still be redeemed after it.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class SerialCycleExecutor(CycleExecutor):
    """The reference backend: run every task in the calling thread."""

    name = "serial"

    def run(self, fn: CycleFn, tasks: Sequence[Any]) -> list[Any]:
        return [fn(task) for task in tasks]

    def submit(
        self, fn: CycleFn, tasks: Sequence[Any], *, inline_single: bool = False
    ) -> CycleHandle:
        # No second thread to overlap with: resolve inline at submit
        # time (through ``run``, the primitive subclasses instrument).
        # A fold later in simulated time just finds the results already
        # computed.
        return CycleHandle(results=self.run(fn, tasks))


class _PooledCycleExecutor(CycleExecutor):
    """Shared lazy-pool plumbing for the thread and process backends."""

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = max_workers
        self._pool: Executor | None = None

    def _make_pool(self) -> Executor:
        raise NotImplementedError

    def submit(
        self, fn: CycleFn, tasks: Sequence[Any], *, inline_single: bool = False
    ) -> CycleHandle:
        if not tasks or (inline_single and len(tasks) == 1):
            # Pool overhead buys nothing when the caller blocks on a
            # batch of one; inline execution is identical because the
            # tasks are pure.  Otherwise even one task goes to the pool:
            # the caller overlaps it with the event loop and with other
            # in-flight batches.
            return CycleHandle(results=[fn(task) for task in tasks])
        if self._pool is None:
            self._pool = self._make_pool()
        return CycleHandle(futures=[self._pool.submit(fn, task) for task in tasks])

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def _available_cpus() -> int:
    """CPUs this process may actually use (affinity-aware on Linux)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class ThreadCycleExecutor(_PooledCycleExecutor):
    """Thread-pool backend (GIL-bound; exercises the parallel path)."""

    name = "thread"

    def _make_pool(self) -> Executor:
        workers = self.max_workers or min(8, _available_cpus())
        return ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="cycle"
        )


class ProcessCycleExecutor(_PooledCycleExecutor):
    """Process-pool backend — real multi-core speedup for NSGA-II."""

    name = "process"

    def _make_pool(self) -> Executor:
        import multiprocessing

        workers = self.max_workers or _available_cpus()
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        return ProcessPoolExecutor(max_workers=workers, mp_context=ctx)


_EXECUTORS: dict[str, type[CycleExecutor]] = {
    SerialCycleExecutor.name: SerialCycleExecutor,
    ThreadCycleExecutor.name: ThreadCycleExecutor,
    ProcessCycleExecutor.name: ProcessCycleExecutor,
}


def make_cycle_executor(
    spec: str | CycleExecutor | None = None,
) -> CycleExecutor:
    """Resolve an executor spec (instance, name, ``name:workers``, or
    ``None`` for the ``CYCLE_EXECUTOR`` environment variable / serial)."""
    if isinstance(spec, CycleExecutor):
        return spec
    if spec is None:
        spec = os.environ.get(CYCLE_EXECUTOR_ENV) or SerialCycleExecutor.name
    name, _, workers = spec.partition(":")
    if name not in _EXECUTORS:
        raise KeyError(
            f"unknown cycle executor {name!r}; choose from {sorted(_EXECUTORS)}"
        )
    cls = _EXECUTORS[name]
    if cls is SerialCycleExecutor:
        return cls()
    return cls(max_workers=int(workers) if workers else None)
