"""Layer tracing from outside ``src/``: spans around the public calls
into each layer, recorded by temporarily replacing class attributes.

A span is one call into a layer.  Spans nest on a stack, so a layer's
*self* time is its span's duration minus the part its child spans cover,
and the self times of every span under the root add up to the root's
duration exactly.  Spans are aggregated per layer name as they close
(count, total, self) instead of being stored one by one: the busiest
workload closes ~10^6 spans per repetition and a list of them would cost
more than the layers it measures.

``src/`` is not edited: the program cannot move this ruler.  In-program
``layer_seconds`` is a later issue.
"""

from __future__ import annotations

import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager

from repro.cloud import AdmissionController, QuantumJob, ShardBalancer, SimulatedQPU
from repro.cloud.cycle_executor import SerialCycleExecutor
from repro.estimator.cache import CachedEstimator
from repro.estimator.models import RegressionEstimator
from repro.moo import NSGA2
from repro.scheduler import FCFSPolicy, QonductorScheduler
from repro.workloads import WorkloadSampler

ROOT = "simulator.run"
#: The host-speed probe ``child.py`` runs inside the stream: a child of
#: the root that is no layer's time and not part of the run's.
PROBE = "bench.probe"

#: Every layer's span name.  ``<name>_s`` is the layer's self time
#: in the per-layer metric set; a span recorded under any other name
#: breaks the sum check in :func:`layer_metrics`.
SPANS = (
    "loadgen.next",
    "workloads.sample",
    "circuits.metrics",
    "tenancy.admit",
    "fleet.route",
    "fleet.rebalance",
    "estimator.block",
    "estimator.predict",
    "scheduler.preprocess",
    "scheduler.select",
    "scheduler.assign",
    "moo.minimize",
    "cycle_executor.run",
    "execution.execute",
)


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Tracer:
    """Aggregating span recorder for one traced repetition."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        #: Per-cycle pieces, in call order (FIFO across batches, so the
        #: k-th begin pairs with the k-th finish and the k-th plan that
        #: carries a task pairs with the k-th executor task).
        self.begins: list[tuple[float, bool]] = []
        self.tasks: list[float] = []
        self.finishes: list[float] = []
        self.assigns: list[float] = []
        self.cycle_jobs: list[int] = []
        self.pairs = 0
        self.generations = 0
        self.evaluations = 0
        self.batches = 0
        self.max_batch = 0
        #: Child-time accumulators of the open spans, innermost last.
        self._stack: list[list[float]] = []

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """``fn`` as a span named ``name``; ``after(args, result, seconds)``
        reads counts off the call at the boundary where the work happens."""
        stack, calls, total, self_time = (
            self._stack, self.calls, self.total, self.self_time,
        )
        clock = time.perf_counter

        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += seconds
                calls[name] += 1
                total[name] += seconds
                self_time[name] += seconds - frame[0]
            if after is not None:
                after(args, result, seconds)
            return result

        return span

    # -- counts read at the span boundaries ----------------------------
    def _after_block(self, args, result, seconds) -> None:
        self.pairs += len(args[1]) * len(args[2])

    def _after_minimize(self, args, result, seconds) -> None:
        self.generations += result.generations
        self.evaluations += result.evaluations

    def _after_begin(self, args, plan, seconds) -> None:
        self.begins.append((seconds, plan.task is not None))
        self.cycle_jobs.append(len(args[1]))

    def _after_finish(self, args, result, seconds) -> None:
        self.finishes.append(seconds)

    def _after_assign(self, args, result, seconds) -> None:
        self.assigns.append(seconds)
        self.cycle_jobs.append(len(args[1]))

    def cycle_seconds(self) -> list[float]:
        """Host seconds per scheduling cycle: begin + optimize + finish
        for split-API policies (the paper's Fig. 9c scheduling overhead),
        one ``assign`` call for the FCFS baselines."""
        if not self.begins:
            return list(self.assigns)
        if len(self.begins) != len(self.finishes):
            raise RuntimeError(
                f"{len(self.begins)} cycles begun, {len(self.finishes)} finished"
            )
        tasks = iter(self.tasks)
        return [
            begin + (next(tasks) if has_task else 0.0) + finish
            for (begin, has_task), finish in zip(self.begins, self.finishes)
        ]

    # -- the patch table -----------------------------------------------
    def _patches(self, sim) -> list[tuple[type, str, str, Callable | None]]:
        """(class, attribute, span name, after-hook): the public entry
        point of each layer.  The rebalancer is patched on its concrete
        class because ``RebalancePolicy.rebalance`` is abstract."""
        table = [
            (WorkloadSampler, "sample", "workloads.sample", None),
            (QuantumJob, "from_circuit", "circuits.metrics", None),
            (AdmissionController, "admit", "tenancy.admit", None),
            (ShardBalancer, "route", "fleet.route", None),
            (CachedEstimator, "estimate_block", "estimator.block", self._after_block),
            (RegressionEstimator, "predict", "estimator.predict", None),
            (QonductorScheduler, "begin_cycle", "scheduler.preprocess", self._after_begin),
            (QonductorScheduler, "finish_cycle", "scheduler.select", self._after_finish),
            (FCFSPolicy, "assign", "scheduler.assign", self._after_assign),
            (NSGA2, "minimize", "moo.minimize", self._after_minimize),
            (SimulatedQPU, "execute", "execution.execute", None),
        ]
        if sim.rebalancer is not None:
            table.append((type(sim.rebalancer), "rebalance", "fleet.rebalance", None))
        return table

    @contextmanager
    def patched(self, sim) -> Iterator[None]:
        """Install the spans for one run, then put every original back
        and verify by identity that it is back."""
        originals = []
        try:
            for cls, attr, name, after in self._patches(sim):
                original = cls.__dict__[attr]
                originals.append((cls, attr, original))
                if isinstance(original, classmethod):
                    setattr(
                        cls, attr,
                        classmethod(self.wrap(name, original.__func__, after)),
                    )
                else:
                    setattr(cls, attr, self.wrap(name, original, after))
            yield
        finally:
            for cls, attr, original in originals:
                setattr(cls, attr, original)
        for cls, attr, original in originals:
            if cls.__dict__[attr] is not original:
                raise RuntimeError(f"{cls.__name__}.{attr} was not restored")

    def stream(self, apps: Iterator) -> Iterator:
        """The arrival iterator handed to ``run``, with each ``next`` a
        ``loadgen.next`` span (the end-of-stream call included)."""
        step = self.wrap("loadgen.next", lambda: next(apps, None))
        return iter(step, None)

    def run(self, sim, stream):
        """``sim.run(stream)`` as the root span."""
        return self.wrap(ROOT, sim.run)(stream)


def layer_metrics(reps: list) -> dict:
    """The per-layer metric set of a run: its traced repetitions, one per
    traffic seed, added up.

    Each repetition carries its ``tracer``, the ``metrics`` the simulator
    returned, the bench's own ``arrivals`` and ``lost`` counts and the
    host ``slowdown`` it ran at; seconds are divided by that factor, like
    every repetition time the benchmark reports.  Times are span *self*
    times; with ``simulator.loop_s`` (the root's own self time: heap,
    dispatch, sampling, bookkeeping) they add up to ``simulator.run_s``,
    which is checked here.
    """

    def seconds(table: str, name: str) -> float:
        return sum(getattr(r.tracer, table)[name] / r.slowdown for r in reps)

    def calls(name: str) -> int:
        return sum(r.tracer.calls[name] for r in reps)

    def count(read: Callable) -> float:
        return sum(read(r) for r in reps)

    run_s = seconds("total", ROOT) - seconds("total", PROBE)
    loop_s = seconds("self_time", ROOT)
    layers = {f"{name}_s": seconds("self_time", name) for name in SPANS}
    explained = sum(layers.values()) + loop_s
    if abs(explained - run_s) > 0.01 * run_s:
        seen = sorted({name for r in reps for name in r.tracer.calls})
        raise RuntimeError(
            f"layer self times add up to {explained:.4f}s of a "
            f"{run_s:.4f}s run; spans seen: {seen}"
        )
    arrivals = count(lambda r: r.arrivals)
    events = count(lambda r: r.metrics.events_processed)
    evaluations = count(lambda r: r.tracer.evaluations)
    hits = count(lambda r: r.metrics.estimate_cache["hits"])
    misses = count(lambda r: r.metrics.estimate_cache["misses"])
    cycles = [s / r.slowdown for r in reps for s in r.tracer.cycle_seconds()]
    tenants = [t for t in (r.metrics.tenant_report() for r in reps) if t]
    layers.update({
        "loadgen.arrivals": arrivals,
        "loadgen.us_per_arrival": 1e6 * _per(seconds("total", "loadgen.next"), arrivals),
        "workloads.sample_calls": calls("workloads.sample"),
        "circuits.metrics_calls": calls("circuits.metrics"),
        "tenancy.admit_calls": calls("tenancy.admit"),
        "tenancy.rejected": count(lambda r: r.metrics.admission_rejected),
        "tenancy.degraded": count(lambda r: r.metrics.admission_degraded),
        "tenancy.tier0_p95_jct_s": _per(
            sum(t["per_tier"].get(0, {}).get("p95_jct", 0.0) for t in tenants),
            len(tenants),
        ),
        "tenancy.jain_fairness": _per(
            sum(t["jain_fairness"] for t in tenants), len(tenants)
        ),
        "fleet.route_calls": calls("fleet.route"),
        "fleet.route_us_per_call": 1e6 * _per(
            seconds("total", "fleet.route"), calls("fleet.route")
        ),
        "fleet.rebalance_calls": calls("fleet.rebalance"),
        "fleet.jobs_migrated": count(lambda r: r.metrics.jobs_migrated),
        "estimator.block_calls": calls("estimator.block"),
        "estimator.pairs": count(lambda r: r.tracer.pairs),
        "estimator.predict_calls": calls("estimator.predict"),
        "estimator.cache_hits": hits,
        "estimator.cache_misses": misses,
        "estimator.cache_hit_rate": _per(hits, hits + misses),
        "estimator.predicts_per_miss": _per(calls("estimator.predict"), misses),
        "scheduler.assign_calls": calls("scheduler.assign"),
        "scheduler.cycles": count(lambda r: r.metrics.scheduling_cycles),
        "scheduler.jobs_per_cycle_p50": _percentile(
            [jobs for r in reps for jobs in r.tracer.cycle_jobs], 0.5
        ),
        "scheduler.cycle_ms_p50": 1e3 * _percentile(cycles, 0.5),
        "scheduler.cycle_ms_p90": 1e3 * _percentile(cycles, 0.9),
        "moo.minimize_calls": calls("moo.minimize"),
        "moo.generations": count(lambda r: r.tracer.generations),
        "moo.evaluations": evaluations,
        "moo.us_per_evaluation": 1e6 * _per(layers["moo.minimize_s"], evaluations),
        "cycle_executor.batches": count(lambda r: r.tracer.batches),
        "cycle_executor.max_batch": max(r.tracer.max_batch for r in reps),
        "execution.execute_calls": calls("execution.execute"),
        "availability.flips": count(
            lambda r: r.metrics.outage_events + r.metrics.recovery_events
        ),
        "availability.downtime_s": count(
            lambda r: sum(r.metrics.qpu_downtime_seconds.values())
        ),
        "simulator.run_s": run_s,
        "simulator.events": events,
        "simulator.loop_s": loop_s,
        "simulator.us_per_event": 1e6 * _per(run_s, events),
        "simulator.failed_share": _per(
            count(
                lambda r: r.metrics.unschedulable_jobs
                + r.metrics.admission_rejected
                + r.lost
            ),
            arrivals,
        ),
        "simulator.load_cv": _per(
            count(lambda r: r.metrics.summary()["load_cv"]), len(reps)
        ),
        "trace.coverage": 1.0 - _per(loop_s, run_s),
    })
    return layers


class TimingSerialExecutor(SerialCycleExecutor):
    """The serial backend with a span per batch and a duration per task
    (the optimize part of each cycle's ``cycle_ms``)."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self.run = tracer.wrap("cycle_executor.run", self._run_batch)

    def _run_batch(self, fn, tasks):
        tracer = self._tracer
        tracer.batches += 1
        tracer.max_batch = max(tracer.max_batch, len(tasks))
        results = []
        for task in tasks:
            t0 = time.perf_counter()
            results.append(fn(task))
            tracer.tasks.append(time.perf_counter() - t0)
        return results
