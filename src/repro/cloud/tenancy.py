"""The multi-tenant front door: tenants, tiers, and admission control.

The paper stops at per-job priorities (Fig. 10b); a cloud serving
millions of users needs *tenants*.  This module adds the three pieces
that sit between the load generator and the fleet layer:

* :class:`Tenant` — identity plus contract: a service **tier** (0 is the
  premium tier), an optional token-bucket **rate limit**, an optional
  fleet-wide pending **queue-depth quota**, and an optional JCT **SLO**.
  Jobs carry their tenant; everything downstream (balancers, policies,
  metrics) reads it from the job.
* :class:`AdmissionController` — the front door.  Every tenant-tagged
  arrival is checked against its tenant's token bucket (refilled at the
  contracted rate, burst-bounded) and its fleet-wide pending-queue
  quota, the sum of the shards' ``FleetShard.tenant_pending`` counts
  (the controller keeps only the buckets).  Rate-limited jobs are
  **rejected** outright, exactly like real QPU clouds shedding load at
  the API edge; quota breaches either **degrade** the job to best-effort
  (it keeps running, at the back of every tier-ordered batch) or reject
  it, per ``quota_action``.
* Tier-weighted scheduling — :func:`tier_sort` orders a batch by
  effective tier (premium first, best-effort last) while preserving
  arrival order within a tier.

Everything here is opt-in and deterministic.  A run without tenants (no
``tenants=`` mix on the load generator, no controller on the simulator)
takes none of these code paths and stays **bit-identical** to the
pre-tenancy simulator — enforced by ``tests/test_tenancy.py`` through
the shared determinism harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BEST_EFFORT_TIER",
    "Tenant",
    "TenantShare",
    "AdmissionDecision",
    "AdmissionController",
    "effective_tier",
    "tier_sort",
    "jain_index",
    "abusive_mix",
]

#: Effective tier assigned to degraded (best-effort) jobs: below every
#: contracted tier, so they sort to the back of any tier-ordered batch.
BEST_EFFORT_TIER = 99


@dataclass(frozen=True)
class Tenant:
    """One tenant's identity and service contract.

    ``tier`` 0 is the premium tier; larger numbers are cheaper tiers.
    ``rate_limit_per_hour`` bounds the tenant's sustained admission rate
    (token bucket, ``burst`` tokens deep); ``queue_quota`` bounds how
    many of the tenant's jobs may sit pending fleet-wide at once.
    ``None`` disables the corresponding check.
    """

    tenant_id: str
    tier: int = 1
    rate_limit_per_hour: float | None = None
    burst: int = 10
    queue_quota: int | None = None
    slo_jct_seconds: float | None = None

    def __post_init__(self) -> None:
        owner = f"tenant {self.tenant_id!r}"
        require_at_least(owner, "tier", self.tier, 0)
        require_at_least(owner, "burst", self.burst, 1)
        if self.queue_quota is not None:
            require_at_least(owner, "queue_quota", self.queue_quota, 1)
        for name in ("rate_limit_per_hour", "slo_jct_seconds"):
            value = getattr(self, name)
            if value is not None:
                require_at_least(owner, name, value, 0, strict=True)


def require_at_least(
    owner: str, name: str, value: float, low: float, *, strict: bool = False
) -> None:
    """Refuse ``value`` unless it is finite and ``>= low`` (``> low`` when
    ``strict``).  Written so NaN fails: a NaN bound would switch off the
    check it configures (``min(burst, nan)`` keeps a bucket full,
    ``nan < horizon`` never schedules a tick)."""
    if not (math.isfinite(value) and (value > low if strict else value >= low)):
        rule = ">" if strict else ">="
        raise ValueError(
            f"{owner}: {name} must be finite and {rule} {low}, got {value!r}"
        )


@dataclass(frozen=True)
class TenantShare:
    """One entry of a load generator tenant mix: who, and how much."""

    tenant: Tenant
    share: float

    def __post_init__(self) -> None:
        # True of NaN too; nothing downstream checks (tenants come off a CDF).
        if not 0 < self.share < float("inf"):
            raise ValueError(
                f"tenant {self.tenant.tenant_id!r}: share must be finite "
                f"and > 0, got {self.share}"
            )


def abusive_mix(
    *,
    abuser_share: float = 0.5,
    abuser_rate_limit_per_hour: float | None = None,
    abuser_queue_quota: int | None = 20,
    normal_slo_seconds: float | None = None,
) -> tuple[TenantShare, ...]:
    """The noisy-neighbor stress mix: one abusive tenant vs normal ones.

    Three well-behaved tenants (tenant-0 premium, the other two tier 1)
    split the non-abusive share evenly; the ``abuser`` (tier 2)
    floods ``abuser_share`` of all arrivals.  The abuser's contract
    carries the rate limit / queue quota an admission controller would
    enforce — without a controller the contract is dead letter, which is
    exactly the comparison the tenant studies run.
    """
    if not 0.0 < abuser_share < 1.0:
        raise ValueError("abuser_share must be in (0, 1)")
    normal_share = (1.0 - abuser_share) / 3
    shares = [
        TenantShare(
            Tenant(
                f"tenant-{i}",
                tier=0 if i == 0 else 1,
                slo_jct_seconds=normal_slo_seconds,
            ),
            normal_share,
        )
        for i in range(3)
    ]
    shares.append(
        TenantShare(
            Tenant(
                "abuser",
                tier=2,
                rate_limit_per_hour=abuser_rate_limit_per_hour,
                queue_quota=abuser_queue_quota,
            ),
            abuser_share,
        )
    )
    return tuple(shares)


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one front-door check."""

    action: str  # "admit" | "degrade" | "reject"
    reason: str = "ok"  # "ok" | "rate_limit" | "queue_quota"

    @property
    def admitted(self) -> bool:
        return self.action != "reject"


class AdmissionController:
    """Token-bucket rate limiting + queue-depth quotas, per tenant.

    The controller sits between arrivals and the shard balancer: the
    simulator asks :meth:`admit` for every tenant-tagged arrival before
    routing it.  Two independent checks, in order:

    1. **Rate limit** — each tenant with a ``rate_limit_per_hour`` owns a
       token bucket of depth ``burst`` refilled continuously at the
       contracted rate; an arrival with no token available is rejected
       (the API-edge shed of real QPU clouds).
    2. **Queue quota** — a tenant with ``queue_quota`` may hold at most
       that many jobs pending (admitted, not yet dispatched) fleet-wide;
       a breach either degrades the job to best-effort
       (``quota_action="degrade"``, the default — it runs, but behind
       every contracted tier) or rejects it (``quota_action="reject"``).

    Jobs without a tenant bypass the front door entirely.  The token
    buckets are the controller's only state, a deterministic function of
    the admission call sequence, so seeded simulations reproduce
    bit-for-bit; the pending depth is read from the shards at each check.
    """

    def __init__(self, *, quota_action: str = "degrade") -> None:
        if quota_action not in ("degrade", "reject"):
            raise ValueError("quota_action must be 'degrade' or 'reject'")
        self.quota_action = quota_action
        # Token buckets: tenant_id -> [tokens, last_refill_time].
        self._buckets: dict[str, list[float]] = {}

    # -- checks --------------------------------------------------------
    def admit(self, job, now: float, shards) -> AdmissionDecision:
        """Front-door check for one arrival (tenant-tagged jobs only).

        ``shards`` are the fleet's :class:`~repro.cloud.fleet.FleetShard`
        partitions; a tenant's fleet-wide pending depth is the sum of
        their ``tenant_pending`` counts, read only for a tenant with a
        quota that passed its rate limit."""
        tenant: Tenant | None = job.tenant
        if tenant is None:
            return AdmissionDecision("admit")
        if tenant.rate_limit_per_hour is not None and not self._take_token(
            tenant, now
        ):
            return AdmissionDecision("reject", "rate_limit")
        if tenant.queue_quota is not None:
            tid = tenant.tenant_id
            if sum(s.tenant_pending(tid) for s in shards) >= tenant.queue_quota:
                return AdmissionDecision(self.quota_action, "queue_quota")
        return AdmissionDecision("admit")

    def _take_token(self, tenant: Tenant, now: float) -> bool:
        bucket = self._buckets.get(tenant.tenant_id)
        if bucket is None:
            # A fresh bucket starts full: a tenant's first burst is never
            # penalized for history it does not have.
            bucket = [float(tenant.burst), now]
            self._buckets[tenant.tenant_id] = bucket
        tokens, last = bucket
        rate = tenant.rate_limit_per_hour / 3600.0
        tokens = min(float(tenant.burst), tokens + (now - last) * rate)
        if tokens < 1.0:
            bucket[0] = tokens
            bucket[1] = now
            return False
        bucket[0] = tokens - 1.0
        bucket[1] = now
        return True


# ---------------------------------------------------------------------------
# Tier-weighted scheduling helpers
# ---------------------------------------------------------------------------

def effective_tier(job) -> int:
    """A job's scheduling tier: degraded jobs fall to best-effort."""
    if job.best_effort or job.tenant is None:
        return BEST_EFFORT_TIER
    return job.tenant.tier


def tier_sort(jobs: list) -> list:
    """Batch order for tier-weighted scheduling.

    Premium tiers first, best-effort last, arrival order preserved
    within a tier (the sort is stable over the incoming order).  When no
    job in the batch carries a tenant the input list is returned
    *unchanged* — same object, no reordering — so tenancy-off runs take
    a provably identical path.
    """
    for job in jobs:
        if job.tenant is not None or job.best_effort:
            return sorted(jobs, key=effective_tier)
    return jobs


def jain_index(values) -> float:
    """Jain's fairness index over per-tenant allocations: (Σx)²/(n·Σx²).

    1.0 is perfectly fair; 1/n means one tenant holds everything.
    Empty or all-zero inputs return 1.0 (nothing to be unfair about).
    """
    x = np.asarray(list(values), dtype=float)
    if x.size == 0:
        return 1.0
    denom = x.size * float((x**2).sum())
    if denom <= 0.0:
        return 1.0
    return float(x.sum()) ** 2 / denom
