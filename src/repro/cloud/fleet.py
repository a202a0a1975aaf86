"""The fleet layer: shards and shard balancers for cloud-scale fleets.

A single scheduler over a 64-256 QPU fleet is the scaling wall the paper's
evaluation stops short of: the (jobs x QPUs) estimate matrices and the
NSGA-II decision space both grow with fleet size, so one scheduling cycle
gets slower exactly when load is heaviest.  Real cloud schedulers bound
both by partitioning the fleet.  A :class:`FleetShard` owns a subset of
QPUs plus its *own* scheduler/policy instance, pending queue, and
scheduling trigger; a :class:`ShardBalancer` routes each incoming quantum
job to one shard.  Per-shard matrices and decision spaces then stay
bounded by the shard width regardless of total fleet size.

Balancing strategies (all deterministic, so seeded runs reproduce):

* :class:`RoundRobinBalancer` — cycle through the shards that can fit the
  job's width.
* :class:`LeastLoadedBalancer` — route to the feasible shard with the
  least pending work (queued jobs plus device backlog).
* :class:`QubitFitBalancer` — route to the feasible shard with the
  tightest width fit, so narrow jobs keep wide devices free for wide jobs;
  ties break on pending load.

Every strategy restricts itself to shards owning at least one wide-enough
**online** QPU (devices go offline for maintenance and outages — see
:mod:`repro.cloud.availability`); when *no* shard fits, the job is routed
anyway (to the strategy's pick over all shards) so the owning scheduler
rejects it exactly like the unsharded simulator would — keeping 1-shard
runs bit-identical to unsharded runs.

Static partitions skew: under a narrow width distribution a qubit-fit
shard can saturate while others idle, and an outage can strand a shard's
pending queue.  A :class:`ThresholdRebalancePolicy` periodically migrates
pending (not-yet-dispatched) jobs between shards — the simulator drives
it from a ``REBALANCE`` heap event: while the deepest pending queue
exceeds a feasible shard's queue by at least ``min_gap`` jobs, it moves
one job at a time from the deepest to the shallowest feasible shard.

Rebalancing is **off by default** (``rebalance=None``): single-shard runs
and rebalancing-disabled multi-shard runs stay bit-identical to the
static fleet layer.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import Any

from ..backends.qpu import QPU
from ..scheduler.policy import SchedulingPolicy, require_policy
from ..scheduler.triggers import SchedulingTrigger
from .backend_sim import SimulatedQPU
from .job import QuantumJob
from .tenancy import require_at_least

__all__ = [
    "FleetShard",
    "ShardBalancer",
    "RoundRobinBalancer",
    "LeastLoadedBalancer",
    "QubitFitBalancer",
    "make_balancer",
    "partition_fleet",
    "Migration",
    "ThresholdRebalancePolicy",
]

#: Seconds of device backlog weighted like one pending job when comparing
#: shard loads (a typical job occupies a QPU for tens of seconds).
_BACKLOG_SECONDS_PER_JOB = 30.0

#: Extra load a load-comparing balancer charges a shard per pending job
#: of the *arriving* job's own tenant: a noisy tenant's burst spreads
#: across shards instead of piling one queue onto the same neighbors.
#: Only applies to tenant-tagged jobs, so untenanted runs are untouched.
_TENANT_SPREAD_PENALTY = 1.0


class QueuedWork:
    """A shard's queued seconds per QPU name at one instant, read on
    demand: ``get(name, default)`` answers as ``{b.name:
    b.waiting_seconds(now)}`` would, without building it for a cycle
    that reads no waits."""

    __slots__ = ("_backends", "_now")

    def __init__(self, backends: dict[str, SimulatedQPU], now: float) -> None:
        self._backends = backends
        self._now = now

    def get(self, name: str, default: float) -> float:
        backend = self._backends.get(name)
        return default if backend is None else backend.waiting_seconds(self._now)


class FleetShard:
    """A fleet partition: some QPUs, one policy, one pending queue."""

    def __init__(
        self,
        shard_id: int,
        backends: list[SimulatedQPU],
        policy: SchedulingPolicy,
        trigger: SchedulingTrigger | None = None,
    ) -> None:
        if not backends:
            raise ValueError("a shard needs at least one QPU")
        self.shard_id = shard_id
        self.backends = backends
        #: Dispatch lookup: a schedule names its target QPU.
        self.backend_by_name = {b.name: b for b in backends}
        self.policy = require_policy(policy, f"FleetShard {shard_id}")
        self.trigger = trigger or self.policy.default_trigger()
        #: What a cycle schedules onto (each ``QPU`` carries its own
        #: ``online`` flag).
        self.qpus: list[QPU] = [b.qpu for b in backends]
        self._pending: list[QuantumJob] = []
        #: ``{tenant_id: jobs in _pending}``, positive counts only; kept
        #: by the queue verbs below, recounted by the ``pending`` setter.
        self._tenant_counts: dict[str, int] = {}
        self._max_qubits: int | None = None  # memo; set_online drops it
        self.jobs_routed = 0
        # Work-stealing accounting (fed by ThresholdRebalancePolicy moves).
        self.jobs_stolen_in = 0
        self.jobs_stolen_out = 0
        #: Widest QPU the shard *hardware* offers, online or not — the
        #: permanent-feasibility bound (see :meth:`fits_hardware`).
        self.hardware_max_qubits = max(b.num_qubits for b in backends)

    @property
    def pending(self) -> list[QuantumJob]:
        """The pending queue, oldest first.  Read it freely; change it
        through the verbs below (or load a whole list by assignment),
        which is what keeps :meth:`tenant_pending` a dict read."""
        return self._pending

    @pending.setter
    def pending(self, jobs: list[QuantumJob]) -> None:
        self.take_all()
        self.requeue_front(jobs)

    def _count(self, job: QuantumJob, step: int) -> None:
        if job.tenant is not None:
            counts, tid = self._tenant_counts, job.tenant.tenant_id
            counts[tid] = counts.get(tid, 0) + step
            if not counts[tid]:
                del counts[tid]

    def enqueue(self, job: QuantumJob) -> None:
        """Queue an arrival (or a migrated job) at the tail."""
        self._pending.append(job)
        self._count(job, 1)

    def take_all(self) -> list[QuantumJob]:
        """Hand the whole queue to a scheduling cycle, leaving it empty."""
        jobs = self._pending
        self._pending = []
        if self._tenant_counts:
            self._tenant_counts = {}
        return jobs

    def requeue_front(self, jobs: list[QuantumJob]) -> None:
        """Put back, ahead of what queued meanwhile, jobs a cycle left."""
        self._pending[:0] = jobs
        for job in jobs:
            self._count(job, 1)

    def move_to(self, index: int, dst: FleetShard) -> QuantumJob:
        """Migrate ``pending[index]`` to the tail of ``dst``'s queue."""
        job = self._pending.pop(index)
        self._count(job, -1)
        dst.enqueue(job)
        return job

    def reorder_tail(self, count: int, key: Callable[[QuantumJob], Any]) -> None:
        """Sort the newest ``count`` jobs in place by ``key``.  (A
        permutation moves no count.)"""
        tail = self._pending[-count:]
        tail.sort(key=key)
        self._pending[-count:] = tail

    @property
    def max_qubits(self) -> int:
        """Widest *online* QPU in the shard (0 when every QPU is down,
        so nothing fits and balancers route around it).  Computed on
        first read and dropped by :meth:`set_online`, the one place a
        ``QPU.online`` flag flips."""
        if self._max_qubits is None:
            online = [b.num_qubits for b in self.backends if b.qpu.online]
            self._max_qubits = max(online, default=0)
        return self._max_qubits

    def set_online(self, qpu_name: str, online: bool) -> None:
        """Flip one of this shard's QPUs (the availability path)."""
        self.backend_by_name[qpu_name].qpu.online = online
        self._max_qubits = None

    def fits(self, job: QuantumJob) -> bool:
        """Whether any *online* QPU in this shard is wide enough."""
        return job.num_qubits <= self.max_qubits

    def fits_hardware(self, job: QuantumJob) -> bool:
        """Whether any QPU here could *ever* serve ``job`` (offline
        devices count: they may recover while the job waits)."""
        return job.num_qubits <= self.hardware_max_qubits

    def pending_load(self, now: float) -> float:
        """Pending work: queued jobs plus device backlog, in job units."""
        backlog = 0.0
        for b in self.backends:
            free_at = b.free_at
            if free_at > now:  # an idle device adds exactly 0.0
                backlog += free_at - now
        return len(self._pending) + backlog / _BACKLOG_SECONDS_PER_JOB

    def tenant_pending(self, tenant_id: str) -> int:
        """How many of ``tenant_id``'s jobs sit in this pending queue."""
        return self._tenant_counts.get(tenant_id, 0)

    def dominant_tenant(self) -> str | None:
        """The tenant with the most pending jobs here (ties break on the
        lexicographically smallest id); ``None`` when untenanted."""
        counts = self._tenant_counts
        return min(counts, key=lambda tid: (-counts[tid], tid), default=None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FleetShard(id={self.shard_id}, qpus={len(self.backends)}, "
            f"max_qubits={self.max_qubits}, pending={len(self._pending)})"
        )


class ShardBalancer:
    """Routes each arriving job to one shard.

    Subclasses implement :meth:`pick` over a non-empty candidate list;
    :meth:`route` narrows the candidates to width-feasible shards first
    and falls back to all shards when none fits (so the owning scheduler
    reports the job unschedulable, matching unsharded behavior).
    """

    name = "base"

    def route(
        self, job: QuantumJob, shards: list[FleetShard], now: float
    ) -> FleetShard:
        # ``fits`` / ``fits_hardware`` inlined: the width is read once.
        width = job.num_qubits
        feasible = [s for s in shards if width <= s.max_qubits]
        if not feasible:
            # Nothing fits *right now*.  Prefer shards whose hardware
            # could ever serve the job — a transiently-offline wide QPU
            # recovers, and the shard holds the job pending until it
            # does — before falling back to the full list (where the
            # owning scheduler rejects it, matching unsharded behavior).
            feasible = [s for s in shards if width <= s.hardware_max_qubits]
        return self.pick(job, feasible or shards, now)

    def pick(
        self, job: QuantumJob, shards: list[FleetShard], now: float
    ) -> FleetShard:
        raise NotImplementedError


class RoundRobinBalancer(ShardBalancer):
    """Deterministic cycle over the feasible shards."""

    name = "round_robin"

    def __init__(self) -> None:
        self._next = 0

    def pick(
        self, job: QuantumJob, shards: list[FleetShard], now: float
    ) -> FleetShard:
        shard = shards[self._next % len(shards)]
        self._next += 1
        return shard


def _tenant_adjusted_load(
    shard: FleetShard, tenant_id: str | None, now: float
) -> float:
    """Pending load plus the tenant-spread penalty for the routed job's
    tenant ``tenant_id`` (read once per arrival by the caller).

    Untenanted jobs (the default) add exactly nothing — the expression
    is never evaluated for them — so tenancy-off routing is bit-identical
    to plain ``pending_load``.
    """
    load = shard.pending_load(now)
    if tenant_id is not None:
        load += _TENANT_SPREAD_PENALTY * shard.tenant_pending(tenant_id)
    return load


class LeastLoadedBalancer(ShardBalancer):
    """Feasible shard with the least pending work; ties break on id.

    Tenant-tagged jobs see each shard's load inflated by the number of
    the *same tenant's* jobs already pending there
    (:data:`_TENANT_SPREAD_PENALTY` per job), so one noisy tenant's
    burst fans out across shards instead of burying a single queue.
    """

    name = "least_loaded"

    def pick(
        self, job: QuantumJob, shards: list[FleetShard], now: float
    ) -> FleetShard:
        # The first minimum of (_tenant_adjusted_load, shard_id), in one
        # loop with one call per shard.
        tid = job.tenant_id
        best, least = shards[0], float("inf")
        for shard in shards:
            load = shard.pending_load(now)
            if tid is not None:
                load += _TENANT_SPREAD_PENALTY * shard.tenant_pending(tid)
            if load < least or (load == least and shard.shard_id < best.shard_id):
                best, least = shard, load
        return best


class QubitFitBalancer(ShardBalancer):
    """Feasible shard with the tightest width fit (locality routing).

    Narrow jobs land on narrow shards so wide shards keep capacity for
    the jobs only they can serve; among equal fits the least-loaded
    shard wins (tenant-adjusted, like :class:`LeastLoadedBalancer`).
    """

    name = "qubit_fit"

    def pick(
        self, job: QuantumJob, shards: list[FleetShard], now: float
    ) -> FleetShard:
        width, tid = job.num_qubits, job.tenant_id
        return min(
            shards,
            key=lambda s: (
                s.max_qubits - width,
                _tenant_adjusted_load(s, tid, now),
                s.shard_id,
            ),
        )


_BALANCERS = {
    RoundRobinBalancer.name: RoundRobinBalancer,
    LeastLoadedBalancer.name: LeastLoadedBalancer,
    QubitFitBalancer.name: QubitFitBalancer,
}


def make_balancer(strategy: str | ShardBalancer) -> ShardBalancer:
    """Resolve a strategy name (or pass a balancer instance through)."""
    if isinstance(strategy, ShardBalancer):
        return strategy
    if strategy not in _BALANCERS:
        raise KeyError(
            f"unknown balancer {strategy!r}; choose from {sorted(_BALANCERS)}"
        )
    return _BALANCERS[strategy]()


def partition_fleet(fleet: list[QPU], num_shards: int) -> list[list[QPU]]:
    """Deal ``fleet`` into ``num_shards`` interleaved groups.

    Interleaving (shard ``i`` gets ``fleet[i::num_shards]``) spreads the
    quality/width gradient of the standard fleets across shards, so every
    shard holds both hot and cold devices.
    """
    if num_shards < 1:
        raise ValueError("need at least one shard")
    if num_shards > len(fleet):
        raise ValueError(
            f"cannot split {len(fleet)} QPUs into {num_shards} shards"
        )
    return [fleet[i::num_shards] for i in range(num_shards)]


# ---------------------------------------------------------------------------
# Shard rebalancing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Migration:
    """One pending job moved from ``src`` to ``dst`` by a rebalance cycle."""

    job: QuantumJob
    src: FleetShard
    dst: FleetShard


class ThresholdRebalancePolicy:
    """Drain depth gaps: deepest queue feeds the shallowest feasible one.

    Runs periodically (every ``interval_seconds``) and migrates pending
    jobs between shards' queues (``move_to``), returning the moves for
    accounting.  While some shard's pending queue is at least ``min_gap``
    jobs deeper than a feasible destination, move one job (newest first —
    the oldest jobs are closest to being scheduled locally) from the
    deepest such queue to the shallowest feasible queue.  A source whose
    jobs fit no eligible destination is skipped, not a stall: shallower
    shards with drainable gaps still drain.  Terminates because every move
    shrinks the gap it was chosen for.  Rules that keep rebalanced runs
    deterministic and well-formed:

    * only *pending* (queued, not yet dispatched) jobs move — work
      already committed to a device queue stays put;
    * a job only moves to a shard where it currently fits (some online
      QPU is wide enough), and at most once per tick;
    * ties break on shard id, and queues are scanned in a fixed order,
      so identical runs produce identical migrations.

    With ``tenant_aware=True``, the queue's *most-represented tenant's*
    jobs migrate first (still newest-first within the tenant): the noisy
    tenant's backlog is what spreads, so quieter tenants queued behind it
    keep their position.  Off by default, and queues without
    tenant-tagged jobs always use the plain scan order, so untenanted runs
    are bit-identical either way.
    """

    def __init__(
        self,
        *,
        min_gap: int = 4,
        interval_seconds: float = 60.0,
        tenant_aware: bool = False,
    ) -> None:
        name = type(self).__name__
        require_at_least(name, "interval_seconds", interval_seconds, 0, strict=True)
        # A 1-job gap would ping-pong a job between two shards.
        require_at_least(name, "min_gap", min_gap, 2)
        self.interval_seconds = interval_seconds
        self.tenant_aware = tenant_aware
        self.min_gap = min_gap

    @staticmethod
    def _move(src: FleetShard, index: int, dst: FleetShard) -> Migration:
        job = src.move_to(index, dst)
        src.jobs_stolen_out += 1
        dst.jobs_stolen_in += 1
        return Migration(job, src, dst)

    def _tenant_scan_order(self, shard: FleetShard) -> Iterator[int] | None:
        """Scan order for a tenant-aware drain of ``shard``'s queue.

        The dominant tenant's jobs come first (newest-first within the
        tenant), then everyone else newest-first — yielded lazily, since
        a drain stops at the first job it can move.  ``None`` — meaning
        "use the plain scan" — when the queue holds no tenant-tagged
        jobs, so untenanted queues never change behavior.
        """
        dominant = shard.dominant_tenant() if self.tenant_aware else None
        if dominant is None:
            return None
        return _dominant_first(shard.pending, dominant)

    def rebalance(
        self, shards: list[FleetShard], now: float
    ) -> list[Migration]:
        moves: list[Migration] = []
        if len(shards) < 2:
            return moves
        received: dict[FleetShard, int] = {}
        # A job moves at most once per cycle: without this, a receiver
        # that becomes the deepest queue can bounce a just-migrated job
        # straight back, inflating the counters with net-zero churn (and
        # shifting receivers' appended tails out from under `received`).
        moved_ids: set[int] = set()
        # Resumable tail scans, one batch per (source, width-cap) epoch.
        # Restarting the newest-first scan from the tail after every
        # single move made a deep-backlog tick O(moves x queue).  A job
        # is skipped exactly when it is wider than every eligible
        # destination, i.e. when ``job.num_qubits > cap`` where ``cap``
        # is the widest eligible destination — and while a source keeps
        # draining, its gaps only shrink, so ``cap`` never grows and a
        # skipped job stays skipped.  Each source therefore remembers
        # where its last scan stopped (``scan_pos``) and the cap it
        # scanned under (``scan_cap``); the scan resumes in place unless
        # the cap *grew* since (a wider destination became eligible —
        # only possible after other sources moved work around), which
        # resets it.  Decisions are identical to the restart-scan
        # algorithm (regression-tested against a reference
        # implementation in ``tests/test_fleet.py``); the cost drops to
        # one queue pass per cap epoch plus O(shards^2) per move.
        scan_pos: dict[int, int] = {}
        scan_cap: dict[int, int] = {}
        while True:
            moved = False
            # Deepest queue first, but a stuck source (its jobs fit no
            # gap-eligible destination) must not stall the rest of the
            # fleet — shallower shards with drainable gaps still drain.
            for src in sorted(
                shards, key=lambda s: (-len(s.pending), s.shard_id)
            ):
                # Gap eligibility is job-independent: hoist it so a
                # converged tick (no destination deep enough below any
                # source — the steady state) costs O(shards^2), not a
                # scan of every queue.
                eligible = [
                    s
                    for s in shards
                    if s is not src
                    and len(src.pending) - len(s.pending) >= self.min_gap
                ]
                if not eligible:
                    continue
                cap = max(s.max_qubits for s in eligible)
                sid = src.shard_id
                # Tenant-aware mode drains the dominant tenant's jobs
                # first; the order depends on the queue's current tenant
                # mix, so it is recomputed per move and the resumable
                # scan state is dropped (a later plain scan of the same
                # source restarts from the tail).  ``None`` — including
                # every untenanted queue — keeps the fast resumable path.
                tenant_order = self._tenant_scan_order(src)
                if tenant_order is None:
                    if sid not in scan_cap or cap > scan_cap[sid]:
                        # First scan, or a wider destination became
                        # eligible: previously skipped jobs may fit now —
                        # rescan from the tail (just-received jobs up
                        # there are skipped in O(1) each via
                        # ``moved_ids``).
                        scan_pos[sid] = len(src.pending) - 1
                    scan_cap[sid] = cap
                    order = range(scan_pos[sid], -1, -1)
                else:
                    scan_pos.pop(sid, None)
                    scan_cap.pop(sid, None)
                    order = tenant_order
                for i in order:
                    job = src.pending[i]
                    if job.job_id in moved_ids:
                        continue
                    if job.num_qubits > cap:
                        continue
                    dsts = [s for s in eligible if s.fits(job)]
                    dst = min(
                        dsts, key=lambda s: (len(s.pending), s.shard_id)
                    )
                    moved_ids.add(job.job_id)
                    moves.append(self._move(src, i, dst))
                    received[dst] = received.get(dst, 0) + 1
                    if tenant_order is None:
                        scan_pos[sid] = i - 1
                    moved = True
                    break
                else:
                    if tenant_order is None:
                        scan_pos[sid] = -1  # queue exhausted under this cap
                if moved:
                    break
            if not moved:
                break
        # Newest-first pops appended each destination's tail in reverse;
        # restore arrival order among the migrated jobs so the receiving
        # FCFS batch serves them as they arrived.
        for dst, count in received.items():
            dst.reorder_tail(count, _arrival_order)
        return moves


def _dominant_first(pending: list[QuantumJob], dominant: str) -> Iterator[int]:
    for theirs in (True, False):
        for i in range(len(pending) - 1, -1, -1):
            if (pending[i].tenant_id == dominant) is theirs:
                yield i


def _arrival_order(job: QuantumJob) -> tuple[float, int]:
    return job.arrival_time, job.job_id
