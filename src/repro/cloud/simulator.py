"""The quantum-cloud simulator (§8.2) — sharded, event-driven core.

Drives simulated time over a stream of hybrid applications with a heap
event queue: application completions, scheduling-trigger deadlines,
metric samples, and recalibration cycles are heap entries, and the
stream's next arrival waits beside the heap under the same key, so
wall-clock cost scales with the number of events rather than with
simulated seconds.  Only entries that will be handled are pushed: none
falls past the horizon, except a completion exactly at it.  The loop is
a table: one handler per :class:`EventType` (``_on_arrival``,
``_on_trigger``, ...) over one private :class:`RunState` that holds
everything a run mutates.

The fleet is organized as one or more :class:`~repro.cloud.fleet.FleetShard`
partitions, each owning a subset of QPUs plus its own scheduler/policy
instance, pending queue, and trigger; a
:class:`~repro.cloud.fleet.ShardBalancer` routes every arriving quantum
job to one shard.  All shards share the single event heap: trigger
deadlines carry their shard index, completions feed fleet-wide running
aggregates, and metric samples merge shard states (with per-shard queue
breakdowns).  A 1-shard simulator is the unsharded configuration and
reproduces it exactly.

Arrivals are *pulled*: :meth:`CloudSimulator.run` accepts either a
pre-built application list or a lazy, time-ordered iterator (see
:meth:`LoadGenerator.iter_arrivals`); only the next pending arrival plus
the in-flight applications are held in memory, so peak memory is
independent of how many jobs the run streams through.

Completion events fold into running sums/counts (not per-completion
lists), so each metric sample costs O(backends) time and the aggregate
state is O(1) memory no matter how many applications finish.  Metrics
sampled over time: mean fidelity, mean end-to-end completion time, mean
QPU utilization, and the pending-queue sizes (Figs. 6, 8, 9).

Two optional subsystems make the fleet *adaptive*:

* **Dynamic availability** — an
  :class:`~repro.cloud.availability.AvailabilityModel` pre-computes
  the offline/recovery flips of its maintenance windows; ``AVAILABILITY``
  events toggle ``QPU.online`` mid-run and every routing/scheduling
  layer is online-aware.  In-flight work keeps its committed finish time.
* **Work stealing** — a
  :class:`~repro.cloud.fleet.ThresholdRebalancePolicy` runs on periodic
  ``REBALANCE`` events, migrating pending jobs from overloaded shards to
  feasible underloaded ones.  Both are off by default, leaving static
  runs bit-identical.

**The scheduling cycle** is the one way a job reaches a device: every
arrival queues on its shard, and a cycle is one synchronous step at its
trigger instant (§7: the cycle fires when the queue reaches its limit or
the interval has passed, and its schedule commits at once).  Every shard
due at that instant — same-instant TRIGGER deadlines coalesce — takes its
pending queue; each policy's ``begin_cycle`` pre-processes it
(prefetching estimates through the shared cache); the pure optimization
stages of the batch run through
:meth:`~repro.cloud.cycle_executor.SerialCycleExecutor.run`; and each
``finish_cycle`` schedule is applied in shard-id order, so dispatch, RNG
draws, heap pushes and metrics happen in one canonical order.  The
firing shards' triggers then re-arm from that instant.  Per-arrival FCFS
is a trigger that fires at every arrival and sets no deadline.  A job no
online device fits stays pending if its shard's hardware could ever
serve it, and fails otherwise.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from ..backends.qpu import QPU
from ..scheduler.cycle import run_optimization
from ..scheduler.policy import SchedulingPolicy
from ..scheduler.triggers import SchedulingTrigger
from .availability import AvailabilityModel
from .backend_sim import SimulatedQPU
from .cycle_executor import SerialCycleExecutor
from .execution import ExecutionModel
from .fleet import (
    FleetShard,
    QueuedWork,
    ShardBalancer,
    ThresholdRebalancePolicy,
    make_balancer,
    partition_fleet,
)
from .job import HybridApplication, JobStatus
from .metrics import SimulationMetrics, TimeSeries
from .tenancy import AdmissionController, AdmissionDecision

__all__ = [
    "CloudSimulator",
    "SimulationConfig",
    "EventType",
]


class EventType(IntEnum):
    """Tie-break priorities at equal timestamps.

    Every kind but ARRIVAL is a heap entry; the next arrival is held in
    :class:`RunState` and ordered against the heap top by the same key.
    Completions land before samples so a sample at time t sees every
    application with ``finish_time <= t``; recalibration, sampling,
    arrivals, and trigger deadlines keep the processing order of the
    original time-stepping loop.  Availability
    flips land right after completions so routing at time t sees the
    fleet state *at* t.  Rebalancing sees every same-instant arrival but
    runs *before* trigger deadlines: a rebalance tick aligned with a
    trigger deadline migrates the queued backlog first, and the triggers
    then schedule the rebalanced queues (ordered after, an aligned tick
    would only ever see freshly drained queues and steal nothing).
    """

    COMPLETION = 0
    AVAILABILITY = 1
    RECALIBRATION = 2
    SAMPLE = 3
    ARRIVAL = 4
    REBALANCE = 5
    TRIGGER = 6


#: The held "arrival" once the stream is spent: it sorts after every heap
#: entry and past any horizon.
_SPENT = (math.inf, int(EventType.ARRIVAL), -1, None)


@dataclass
class SimulationConfig:
    """Knobs of one simulation run."""

    duration_seconds: float = 3600.0
    sample_every_seconds: float = 120.0
    recalibrate_every_seconds: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        # A non-positive period re-pushes its event at (or before) the
        # same instant forever, and an infinite horizon never ends, so
        # run() would never return; ``None`` turns recalibration off.
        for name in (
            "duration_seconds", "sample_every_seconds", "recalibrate_every_seconds"
        ):
            value = getattr(self, name)
            if value is None and name == "recalibrate_every_seconds":
                continue
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")


@dataclass(slots=True)
class RunState:
    """Everything one :meth:`CloudSimulator.run` mutates.

    Heap entries are ``(time, kind, seq, payload)``: ``kind`` breaks
    same-instant ties by :class:`EventType` priority and ``seq`` (push
    order) breaks the rest, so pop order is total and deterministic.
    The stream's next arrival is not pushed: ``arrival`` holds it as the
    entry it would be, its ``seq`` drawn when it is pulled, and the loop
    takes whichever of it and the heap top is smaller.  An entry is pushed
    only if it will pop: before the horizon, or for a completion at it.
    """

    horizon: float
    stream: Iterator[HybridApplication]
    metrics: SimulationMetrics
    heap: list[tuple[float, int, int, object]] = field(default_factory=list)
    seq: Iterator[int] = field(default_factory=itertools.count)
    arrival: tuple[float, int, int, object] = _SPENT
    #: Only in-flight applications (arrived, not yet dispatched) are
    #: held here; entries are dropped on dispatch/rejection so memory
    #: stays independent of the stream length.
    apps_by_job: dict[int, HybridApplication] = field(default_factory=dict)
    # Running completion sums (fed by COMPLETION events, divided by
    # ``metrics.completed_jobs``), so each sample is O(backends) time and
    # the aggregate state is O(1) memory however many jobs complete.
    done_fid_sum: float = 0.0
    done_jct_sum: float = 0.0
    shard_of_qpu: dict[str, FleetShard] = field(default_factory=dict)
    offline_since: dict[str, float] = field(default_factory=dict)

    def push(self, t: float, kind: EventType, payload=None) -> None:
        heapq.heappush(self.heap, (t, int(kind), next(self.seq), payload))

    def push_before_horizon(self, t: float, kind: EventType, payload=None) -> None:
        """Push an entry only if it will pop (it falls before the horizon)."""
        if t < self.horizon:
            self.push(t, kind, payload)

    def hold(self, app: HybridApplication | None) -> None:
        """Hold the stream's next arrival (``None``: the stream is spent)."""
        self.arrival = (
            _SPENT if app is None
            else (app.arrival_time, int(EventType.ARRIVAL), next(self.seq), app)
        )


class CloudSimulator:
    """The trigger-driven cloud sim: Qonductor, or an FCFS baseline.

    The plain constructor builds the classic single-shard configuration
    from ``fleet`` + ``policy`` (on ``trigger``, else the policy's
    default); pass ``shards`` (a list of :class:`FleetShard`, each at the
    position of its ``shard_id``) plus a ``balancer`` for partitioned
    fleets, or use :meth:`sharded` to build both from a fleet and a
    policy prototype.
    A simulator is single-shot: devices, triggers, and policies carry
    state across a run, so :meth:`run` may be called once.
    """

    def __init__(
        self,
        fleet: list[QPU] | None = None,
        policy: SchedulingPolicy | None = None,
        execution_model: ExecutionModel | None = None,
        *,
        trigger: SchedulingTrigger | None = None,
        config: SimulationConfig | None = None,
        shards: list[FleetShard] | None = None,
        balancer: str | ShardBalancer = "round_robin",
        rebalance: ThresholdRebalancePolicy | None = None,
        availability: AvailabilityModel | None = None,
        cycle_executor: str | SerialCycleExecutor | None = None,
        admission: AdmissionController | None = None,
    ) -> None:
        self.config = config or SimulationConfig()
        self.execution_model = execution_model or ExecutionModel(
            seed=self.config.seed
        )
        if shards is not None:
            if fleet is not None or policy is not None or trigger is not None:
                raise ValueError(
                    "pass either (fleet, policy[, trigger]) or shards, not both"
                )
            self.shards = list(shards)
            for i, shard in enumerate(self.shards):
                if shard.shard_id != i:
                    raise ValueError(
                        f"shards[{i}] has shard_id {shard.shard_id}: a "
                        "shard's id must be its position in shards"
                    )
        else:
            if fleet is None or policy is None:
                raise ValueError("need a fleet and a policy (or shards)")
            backends = [SimulatedQPU(q) for q in fleet]
            self.shards = [FleetShard(0, backends, policy, trigger)]
        self.balancer = make_balancer(balancer)
        # Each distinct estimate source of the shards' policies, in shard
        # order (spawned policies share one): a calibration wave reaches
        # each once, and their cache counters are merged once.
        sources = (shard.policy.estimate_fn for shard in self.shards)
        self._estimate_sources = list({id(s): s for s in sources if s is not None}.values())
        # Both adaptive subsystems default to off: static fleets stay
        # bit-identical to the pre-rebalancing simulator.
        if rebalance is not None and not isinstance(rebalance, ThresholdRebalancePolicy):
            raise TypeError(
                f"rebalance must be a ThresholdRebalancePolicy or None, got {rebalance!r}"
            )
        self.rebalancer = rebalance
        self.availability = availability
        # The multi-tenant front door (see repro.cloud.tenancy).  ``None``
        # — the default — bypasses admission entirely, as do untenanted
        # jobs under a controller, so tenancy-off runs stay bit-identical.
        self.admission = admission
        # What runs a batch's optimization stages: serial, or an instance
        # of it (a subclass may time or check the stage).
        if isinstance(cycle_executor, SerialCycleExecutor):
            self.cycle_executor = cycle_executor
        elif cycle_executor in (None, "serial"):
            self.cycle_executor = SerialCycleExecutor()
        else:
            raise ValueError(
                f"unknown cycle executor {cycle_executor!r}: the serial "
                "backend is the only one (pass 'serial', None or a "
                "SerialCycleExecutor)"
            )
        self._rng = np.random.default_rng(self.config.seed)
        self._has_run = False

    @classmethod
    def sharded(
        cls,
        fleet: list[QPU],
        policy: SchedulingPolicy,
        *,
        num_shards: int,
        balancer: str | ShardBalancer = "least_loaded",
        trigger_factory: Callable[[int], SchedulingTrigger] | None = None,
        **engine,
    ) -> "CloudSimulator":
        """Partition ``fleet`` into ``num_shards`` shards.

        Each shard gets ``policy.spawn(shard_id)`` and
        ``trigger_factory(shard_id)`` (default: the policy's
        ``default_trigger()``).  Every other keyword (``execution_model``,
        ``config``, ``rebalance``, ``availability``, ``cycle_executor``,
        ``admission``) is the constructor's, forwarded as is — an unknown
        one is its ``TypeError``.
        """
        shards = [
            FleetShard(
                i,
                [SimulatedQPU(q) for q in group],
                policy.spawn(i),
                trigger_factory(i) if trigger_factory else None,
            )
            for i, group in enumerate(partition_fleet(fleet, num_shards))
        ]
        return cls(shards=shards, balancer=balancer, **engine)

    @property
    def backends(self) -> list[SimulatedQPU]:
        """Every simulated backend, in shard order."""
        return [b for shard in self.shards for b in shard.backends]

    # -- dispatch ------------------------------------------------------
    def _dispatch(
        self, st: RunState, shard: FleetShard, job, qpu_name: str, now: float
    ) -> None:
        try:
            backend = shard.backend_by_name[qpu_name]
        except KeyError:
            raise KeyError(
                f"shard {shard.shard_id} has no QPU named {qpu_name!r}"
            ) from None
        record = backend.execute(job, now, self.execution_model, self._rng)
        # Dispatch != completion: the job is only *completed* when its
        # COMPLETION event folds inside the horizon (``_on_completion``).
        st.metrics.dispatched_jobs += 1
        app = st.apps_by_job.pop(job.job_id, None)
        if app is not None:
            app.pre_seconds = record.classical_pre_seconds
            app.post_seconds = record.classical_post_seconds
            # Classical post-processing starts right after the quantum part;
            # classical waiting is ~zero (thousands of workers available).
            app.finish_time = job.finish_time + record.classical_post_seconds
            # ``_finish`` folds a completion at the horizon; a later one
            # would never be handled.
            if app.finish_time <= st.horizon:
                st.push(app.finish_time, EventType.COMPLETION, app)

    def _fail(self, st: RunState, job) -> None:
        job.status = JobStatus.FAILED
        st.metrics.unschedulable_jobs += 1
        st.apps_by_job.pop(job.job_id, None)

    def _record_admission(
        self, job, decision: AdmissionDecision, metrics: SimulationMetrics
    ) -> None:
        bucket = metrics.per_tenant_admission.setdefault(
            job.tenant_id, {"admitted": 0, "degraded": 0, "rejected": 0}
        )
        if decision.action == "reject":
            bucket["rejected"] += 1
            metrics.admission_rejected += 1
        elif decision.action == "degrade":
            bucket["degraded"] += 1
            metrics.admission_degraded += 1
        else:
            bucket["admitted"] += 1

    # -- the scheduling cycle -------------------------------------------
    def _run_batch(
        self, st: RunState, shards: list[FleetShard], now: float
    ) -> None:
        """Run one engine batch over ``shards`` (shard-id order) at ``now``.

        Each shard's pending queue is taken and its policy's
        ``begin_cycle`` builds a plan from it, with estimates prefetched
        through the shared cache.  The plans' pure optimization tasks
        (FCFS has none) run through the cycle executor, and each
        ``finish_cycle`` schedule is applied, and the shard's trigger
        re-armed from ``now``, in shard-id order: dispatch RNG draws, heap
        pushes, metrics and cache updates happen in one canonical order.
        """
        metrics = st.metrics
        metrics.cycle_batches += 1
        metrics.max_batch_cycles = max(metrics.max_batch_cycles, len(shards))
        plans = [
            shard.policy.begin_cycle(
                shard.take_all(), shard.qpus, QueuedWork(shard.backend_by_name, now)
            )
            for shard in shards
        ]
        tasks = [plan.task for plan in plans if plan.task is not None]
        results = iter(self.cycle_executor.run(run_optimization, tasks) if tasks else ())
        for shard, plan in zip(shards, plans):
            result = next(results) if plan.task is not None else None
            self._apply_schedule(st, shard, shard.policy.finish_cycle(plan, result), now)
            self._rearm(st, shard, now)

    def _apply_schedule(
        self, st: RunState, shard: FleetShard, schedule, now: float
    ) -> None:
        """Fold one cycle's schedule back in: dispatch, fail, retain."""
        metrics = st.metrics
        metrics.scheduling_cycles += 1
        if schedule.stage_seconds:
            agg = metrics.stage_seconds
            for key, value in schedule.stage_seconds.items():
                agg[key] = agg.get(key, 0.0) + value
        for dec in schedule.decisions:
            dec.job.schedule_time = now
            self._dispatch(st, shard, dec.job, dec.qpu_name, now)
        # Fail only jobs no device in the shard could *ever* serve.  A
        # job that fits a currently-offline QPU is a transient casualty
        # of an outage: it stays pending until the device recovers (or a
        # rebalance cycle migrates it to a shard that fits it now).
        retained: list = []
        for job in schedule.unschedulable:
            if shard.fits_hardware(job):
                retained.append(job)
            else:
                self._fail(st, job)
        if retained:
            shard.requeue_front(retained)

    def _fire_if_ready(
        self, st: RunState, shard: FleetShard, now: float
    ) -> None:
        """Run a cycle when the shard's trigger condition is met (the
        arrival and rebalance paths)."""
        if shard.trigger.should_fire(len(shard.pending), now):
            self._run_batch(st, [shard], now)

    def _rearm(self, st: RunState, shard: FleetShard, now: float) -> None:
        """Mark the shard's trigger fired and queue its next deadline."""
        shard.trigger.fired(now)
        self._arm(st, shard, now)

    def _arm(self, st: RunState, shard: FleetShard, now: float) -> None:
        """Queue the shard's next deadline if it falls before the horizon
        (later ones never pop; a per-arrival trigger's is infinite)."""
        deadline = shard.trigger.next_deadline(now)
        if deadline < st.horizon:
            st.push(deadline, EventType.TRIGGER, shard.shard_id)

    # -- event handlers, one per EventType -----------------------------
    def _on_completion(
        self, st: RunState, now: float, app: HybridApplication
    ) -> None:
        metrics = st.metrics
        job = app.quantum_job
        st.done_fid_sum += job.fidelity
        st.done_jct_sum += app.completion_time
        metrics.completed_jobs += 1
        # Per-tenant JCT / SLO accounting (tenant-tagged jobs only, so
        # untenanted runs never touch these dicts).
        if job.tenant is not None:
            tid = job.tenant.tenant_id
            metrics.tenant_jct.setdefault(tid, []).append(app.completion_time)
            metrics.tenant_tier.setdefault(tid, job.tenant.tier)
            slo = job.tenant.slo_jct_seconds
            if slo is not None and app.completion_time > slo:
                metrics.slo_violations[tid] = (
                    metrics.slo_violations.get(tid, 0) + 1
                )

    def _on_availability(self, st: RunState, now: float, flip) -> None:
        metrics = st.metrics
        shard = st.shard_of_qpu[flip.qpu_name]
        was_online = shard.backend_by_name[flip.qpu_name].qpu.online
        if flip.online and not was_online:
            metrics.recovery_events += 1
            went_down = st.offline_since.pop(flip.qpu_name, now)
            metrics.qpu_downtime_seconds[flip.qpu_name] = (
                metrics.qpu_downtime_seconds.get(flip.qpu_name, 0.0)
                + (now - went_down)
            )
        elif not flip.online and was_online:
            metrics.outage_events += 1
            st.offline_since[flip.qpu_name] = now
        shard.set_online(flip.qpu_name, flip.online)

    def _on_recalibration(self, st: RunState, now: float, _payload) -> None:
        """Fleet-wide calibration cycle across every shard.

        Each distinct estimate source of the shards' policies hears it
        once, with the full fleet: a cache shared across shards is
        invalidated once per wave.
        """
        all_qpus = [b.qpu for b in self.backends]
        for qpu in all_qpus:
            qpu.recalibrate()
        self.execution_model.on_recalibration()
        for source in self._estimate_sources:
            source.on_recalibration(all_qpus)
        st.push_before_horizon(now + self.config.recalibrate_every_seconds, EventType.RECALIBRATION)

    def _on_sample(self, st: RunState, now: float, _payload) -> None:
        self._sample(st, now)
        st.push_before_horizon(now + self.config.sample_every_seconds, EventType.SAMPLE)

    def _sample(self, st: RunState, t: float) -> None:
        metrics = st.metrics
        done = metrics.completed_jobs
        if done:
            metrics.mean_fidelity.add(t, st.done_fid_sum / done)
            metrics.mean_completion_time.add(t, st.done_jct_sum / done)
        busy = [
            max(0.0, b.busy_seconds - max(0.0, b.free_at - t))
            for shard in self.shards
            for b in shard.backends
        ]
        metrics.mean_utilization.add(
            t, float(np.mean([min(1.0, bu / max(t, 1e-9)) for bu in busy]))
        )
        metrics.scheduler_queue_size.add(
            t, sum(len(shard.pending) for shard in self.shards)
        )
        if len(self.shards) > 1:
            for shard in self.shards:
                metrics.shard_queue_size.setdefault(
                    shard.shard_id, TimeSeries()
                ).add(t, len(shard.pending))

    def _on_arrival(
        self, st: RunState, now: float, app: HybridApplication
    ) -> None:
        nxt = next(st.stream, None)
        if nxt is not None and nxt.arrival_time < app.arrival_time:
            raise ValueError(
                f"arrivals must be time-ordered: app {nxt.app_id} "
                f"arrives at {nxt.arrival_time}, after app {app.app_id} "
                f"at {app.arrival_time} (pass a list to have it sorted)"
            )
        st.hold(nxt)
        job = app.quantum_job
        metrics = st.metrics
        # The multi-tenant front door: tenant-tagged arrivals are checked
        # against their contract *before* routing.  A rejection sheds the
        # job at the API edge (it is never queued, dispatched, or counted
        # in-flight); a degrade admits it as best-effort.
        if self.admission is not None and job.tenant is not None:
            decision = self.admission.admit(job, now, self.shards)
            self._record_admission(job, decision, metrics)
            if not decision.admitted:
                job.status = JobStatus.REJECTED
                return
            if decision.action == "degrade":
                job.best_effort = True
        job.status = JobStatus.QUEUED
        st.apps_by_job[job.job_id] = app
        metrics.peak_inflight_apps = max(
            metrics.peak_inflight_apps, len(st.apps_by_job)
        )
        shard = self.balancer.route(job, self.shards, now)
        shard.jobs_routed += 1
        shard.enqueue(job)
        self._fire_if_ready(st, shard, now)

    def _on_rebalance(self, st: RunState, now: float, _payload) -> None:
        moves = self.rebalancer.rebalance(self.shards, now)
        st.metrics.rebalance_cycles += 1
        st.metrics.jobs_migrated += len(moves)
        # A shard that just received work may be past its trigger
        # condition; fire it now instead of waiting for the next deadline
        # (mirrors the arrival path).
        receivers = sorted({m.dst for m in moves}, key=lambda s: s.shard_id)
        for shard in receivers:
            self._fire_if_ready(st, shard, now)
        st.push_before_horizon(now + self.rebalancer.interval_seconds, EventType.REBALANCE)

    def _on_trigger(self, st: RunState, now: float, shard_id: int) -> None:
        """Coalesce this instant's TRIGGERs into one engine batch.

        Every TRIGGER entry at this same simulated instant merges.  An
        entry that is no longer its shard's live deadline — a cycle fired
        on the arrival or rebalance path and re-armed it since the entry
        was pushed — is stale and skipped.  TRIGGER is the
        highest-priority-value event kind, so every other same-time
        event has already been processed; the batch runs in shard-id
        order, one canonical order whatever order the triggers popped in.
        A due shard whose queue does not fire just re-arms its deadline.
        """
        heap = st.heap
        due = {shard_id}
        while heap and heap[0][0] == now and heap[0][1] == EventType.TRIGGER:
            st.metrics.events_processed += 1
            due.add(heapq.heappop(heap)[3])
        firing = []
        for sid in sorted(due):
            shard = self.shards[sid]
            trigger = shard.trigger
            if trigger.next_deadline(now) != now:
                continue
            if trigger.should_fire(len(shard.pending), now):
                firing.append(shard)
            else:
                self._rearm(st, shard, now)
        if firing:
            self._run_batch(st, firing, now)

    # ------------------------------------------------------------------
    def _collect_cache_stats(self, metrics: SimulationMetrics) -> None:
        """Merge the counters of the distinct estimate caches (spawned
        policies share one; hand-built shards may not)."""
        # Imported here: estimator.cache imports cloud.job at load time.
        from ..estimator.cache import CachedEstimator, CacheStats

        unique = [
            source.stats
            for source in self._estimate_sources
            if isinstance(source, CachedEstimator)
        ]
        if unique:
            metrics.estimate_cache = CacheStats(
                hits=sum(s.hits for s in unique),
                misses=sum(s.misses for s in unique),
                invalidations=sum(s.invalidations for s in unique),
            ).as_dict()

    def run(
        self, apps: list[HybridApplication] | Iterable[HybridApplication]
    ) -> SimulationMetrics:
        """Simulate the full application stream; returns collected metrics.

        ``apps`` may be a list (sorted internally, kept by the caller) or
        any time-ordered iterator of applications — e.g.
        ``LoadGenerator.iter_arrivals`` — which is consumed lazily, one
        arrival ahead of simulated time.  Single-shot: device clocks,
        routing counters, triggers, admission windows, and policy cycle
        counters all persist, so a second call raises ``RuntimeError``
        instead of silently reporting different metrics — build a fresh
        simulator per run.
        """
        if self._has_run:
            raise RuntimeError(
                "CloudSimulator.run() is single-shot: fleet, trigger, and "
                "policy state persist across a run; build a new simulator"
            )
        self._has_run = True
        wall_start = time.perf_counter()
        st = self._start(apps)
        metrics, heap, horizon = st.metrics, st.heap, st.horizon
        handlers = [
            getattr(self, f"_on_{kind.name.lower()}")
            for kind in sorted(EventType)
        ]
        heappop = heapq.heappop
        # One merge of two ordered sources: the held arrival and the heap.
        while True:
            arrival = st.arrival
            if heap and heap[0] < arrival:
                if heap[0][0] >= horizon:
                    break
                now, kind, _, payload = heappop(heap)
            elif arrival[0] < horizon:
                now, kind, _, payload = arrival
            else:
                break
            metrics.events_processed += 1
            handlers[kind](st, now, payload)
        self._finish(st)
        metrics.wall_seconds = time.perf_counter() - wall_start
        return metrics

    def _start(
        self, apps: list[HybridApplication] | Iterable[HybridApplication]
    ) -> RunState:
        """Build the run's state, hold its first arrival and seed the heap."""
        cfg = self.config
        horizon = cfg.duration_seconds
        if isinstance(apps, list):
            apps = sorted(apps, key=lambda a: a.arrival_time)
        st = RunState(
            horizon=horizon,
            stream=iter(apps),
            metrics=SimulationMetrics(num_shards=len(self.shards)),
            shard_of_qpu={
                b.name: shard for shard in self.shards for b in shard.backends
            },
        )
        st.hold(next(st.stream, None))
        st.push_before_horizon(cfg.sample_every_seconds, EventType.SAMPLE)
        if cfg.recalibrate_every_seconds is not None:
            st.push_before_horizon(cfg.recalibrate_every_seconds, EventType.RECALIBRATION)
        for shard in self.shards:
            self._arm(st, shard, 0.0)
        if self.availability is not None:
            for ev in self.availability.schedule(list(st.shard_of_qpu), horizon):
                st.push_before_horizon(ev.time, EventType.AVAILABILITY, ev)
        if self.rebalancer is not None and len(self.shards) > 1:
            st.push_before_horizon(self.rebalancer.interval_seconds, EventType.REBALANCE)
        return st

    def _finish(self, st: RunState) -> None:
        """Horizon flush and final bookkeeping."""
        metrics, heap, horizon = st.metrics, st.heap, st.horizon
        # Schedule leftovers at the horizon: one engine batch over every
        # backlogged shard, like an aligned deadline.
        backlogged = [s for s in self.shards if s.pending]
        if backlogged:
            self._run_batch(st, backlogged, horizon)
        # Fold in the completions at the horizon itself (nothing else is
        # left: every other entry fell before it and popped), and take the
        # last sample.
        while heap:
            t, _, _, app = heapq.heappop(heap)
            metrics.events_processed += 1
            self._on_completion(st, t, app)
        self._sample(st, horizon)
        # Devices still down at the horizon accrue downtime to the end.
        for name, went_down in st.offline_since.items():
            metrics.qpu_downtime_seconds[name] = (
                metrics.qpu_downtime_seconds.get(name, 0.0)
                + (horizon - went_down)
            )
        # Jobs still pending (held through an outage outliving the run)
        # are reported rather than silently dropped from the counters.
        metrics.pending_at_horizon = sum(
            len(shard.pending) for shard in self.shards
        )
        for shard in self.shards:
            metrics.per_shard_jobs[shard.shard_id] = shard.jobs_routed
            if self.rebalancer is not None:
                metrics.per_shard_steals[shard.shard_id] = {
                    "in": shard.jobs_stolen_in,
                    "out": shard.jobs_stolen_out,
                }
            for b in shard.backends:
                metrics.per_qpu_busy_seconds[b.name] = b.busy_seconds
                metrics.per_qpu_jobs[b.name] = b.jobs_executed
        self._collect_cache_stats(metrics)
