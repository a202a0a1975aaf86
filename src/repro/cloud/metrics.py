"""Metrics collection for cloud simulations (§8.1's three metrics)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["TimeSeries", "SimulationMetrics"]


@dataclass
class TimeSeries:
    """A (time, value) series with convenience accessors."""

    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def add(self, t: float, v: float) -> None:
        self.times.append(float(t))
        self.values.append(float(v))

    def mean(self) -> float:
        return float(np.mean(self.values)) if self.values else 0.0

    def last(self) -> float:
        return self.values[-1] if self.values else 0.0

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array(self.times), np.array(self.values)


@dataclass
class SimulationMetrics:
    """Everything a cloud-simulation run reports."""

    mean_fidelity: TimeSeries = field(default_factory=TimeSeries)
    mean_completion_time: TimeSeries = field(default_factory=TimeSeries)
    mean_utilization: TimeSeries = field(default_factory=TimeSeries)
    scheduler_queue_size: TimeSeries = field(default_factory=TimeSeries)
    per_qpu_busy_seconds: dict[str, float] = field(default_factory=dict)
    per_qpu_jobs: dict[str, int] = field(default_factory=dict)
    #: Jobs whose COMPLETION event folded inside the horizon.  A job
    #: dispatched near the end of the run may finish after it; those
    #: count as dispatched but not completed.
    completed_jobs: int = 0
    #: Jobs handed to a device queue (assignment succeeded).
    dispatched_jobs: int = 0
    unschedulable_jobs: int = 0
    #: Jobs still pending when the run ended — e.g. held through an
    #: outage that outlived the horizon.  Every arrival lands in exactly
    #: one of dispatched / unschedulable / pending_at_horizon.
    pending_at_horizon: int = 0
    scheduling_cycles: int = 0
    #: Fleet-layer accounting: shard count, jobs routed per shard, and
    #: (for multi-shard runs) each shard's pending-queue series alongside
    #: the merged ``scheduler_queue_size``.
    num_shards: int = 1
    per_shard_jobs: dict[int, int] = field(default_factory=dict)
    shard_queue_size: dict[int, TimeSeries] = field(default_factory=dict)
    #: Work-stealing accounting (only populated when a rebalancer runs):
    #: rebalance cycles executed, pending jobs migrated, and each shard's
    #: ``{"in": stolen_in, "out": stolen_out}`` totals.
    rebalance_cycles: int = 0
    jobs_migrated: int = 0
    per_shard_steals: dict[int, dict[str, int]] = field(default_factory=dict)
    #: Dynamic-availability accounting: offline/online flips folded into
    #: the run and the total seconds each QPU spent offline.
    outage_events: int = 0
    recovery_events: int = 0
    qpu_downtime_seconds: dict[str, float] = field(default_factory=dict)
    #: Peak number of applications held in flight (arrived but not yet
    #: dispatched).  Streaming runs keep this independent of stream length.
    peak_inflight_apps: int = 0
    #: Event-core accounting: how many discrete events the simulator
    #: processed (arrivals, completions, triggers, samples, recalibrations)
    #: and how long the run took in wall-clock seconds.
    events_processed: int = 0
    wall_seconds: float = 0.0
    #: Engine-batch accounting: scheduling-cycle batches executed
    #: (same-instant trigger deadlines coalesce into one batch) and the
    #: widest batch seen — >1 means several shards' cycles shared a batch.
    cycle_batches: int = 0
    max_batch_cycles: int = 0
    #: Accumulated per-stage wall seconds across every scheduling cycle
    #: (``preprocess`` / ``optimize`` / ``select`` summed over cycles).
    stage_seconds: dict = field(default_factory=dict)
    #: Estimate-cache counters, when the scheduling policy exposes a cache.
    estimate_cache: dict = field(default_factory=dict)
    #: Multi-tenancy accounting (see :mod:`repro.cloud.tenancy`); only
    #: populated when jobs carry tenants / an admission controller runs.
    #: Front-door outcomes per tenant: ``{"admitted": n, "degraded": n,
    #: "rejected": n}`` (degraded jobs are admitted as best-effort).
    per_tenant_admission: dict[str, dict[str, int]] = field(
        default_factory=dict
    )
    #: Arrivals shed at the front door (rate limit or queue quota).
    admission_rejected: int = 0
    #: Arrivals degraded to best-effort on a queue-quota breach.
    admission_degraded: int = 0
    #: Completed-job JCTs per tenant (raw, for percentile reporting).
    tenant_jct: dict[str, list[float]] = field(default_factory=dict)
    #: Tenant -> contracted service tier, recorded as tenants are seen.
    tenant_tier: dict[str, int] = field(default_factory=dict)
    #: Completed jobs per tenant that blew their tenant's JCT SLO.
    slo_violations: dict[str, int] = field(default_factory=dict)

    @property
    def events_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.events_processed / self.wall_seconds

    #: The **exclusion allowlist** of ``deterministic_state``: the only
    #: fields allowed to differ between two runs of the same seeded
    #: scenario, because they measure wall-clock rather than simulated
    #: behavior.  Every other field — including any field added later —
    #: is compared by default; a name listed here that is not a real
    #: field is an error (it would silently exclude nothing).
    TIMING_FIELDS = ("wall_seconds", "stage_seconds")

    def deterministic_state(self) -> dict:
        """Every field except wall-clock timings, in comparable form.

        Two runs of the same seeded scenario — plain, or with every cycle
        task and result sent through a pickle round trip — must produce
        equal ``deterministic_state()`` dicts, provided both start from a
        cold estimate cache: the
        ``estimate_cache`` hit/miss counters are compared too, and they
        depend on how warm the (possibly shared) cache was.
        ``TimeSeries`` fields compare as (times, values) tuples.
        New fields are included automatically: only the explicit
        ``TIMING_FIELDS`` allowlist is excluded, and the allowlist is
        validated against the actual field set so a typo'd or stale
        entry fails loudly instead of silently comparing nothing.
        """
        fields_present = set(vars(self))
        unknown = set(self.TIMING_FIELDS) - fields_present
        if unknown:
            raise AttributeError(
                "TIMING_FIELDS names absent from SimulationMetrics: "
                f"{sorted(unknown)} — the exclusion allowlist must list "
                "real fields only"
            )
        state = {}
        for name, value in vars(self).items():
            if name in self.TIMING_FIELDS:
                continue
            if isinstance(value, TimeSeries):
                value = (tuple(value.times), tuple(value.values))
            elif isinstance(value, dict) and any(
                isinstance(v, TimeSeries) for v in value.values()
            ):
                value = {
                    k: (tuple(v.times), tuple(v.values))
                    for k, v in value.items()
                }
            state[name] = value
        return state

    # -- multi-tenancy reporting ---------------------------------------
    def jain_fairness(self) -> float:
        """Jain's index over per-tenant mean JCT (1.0 = perfectly fair)."""
        from .tenancy import jain_index

        means = [
            float(np.mean(v)) for v in self.tenant_jct.values() if v
        ]
        return jain_index(means)

    def tenant_report(self) -> dict:
        """Per-tenant and per-tier JCT percentiles, fairness, and SLOs.

        Empty when the run carried no tenants.  Percentiles are over the
        completed jobs' JCTs; tiers aggregate every tenant contracted at
        that tier.
        """
        if not self.tenant_jct:
            return {}
        per_tenant = {}
        by_tier: dict[int, list[float]] = {}
        for tid in sorted(self.tenant_jct):
            values = self.tenant_jct[tid]
            tier = self.tenant_tier.get(tid)
            if tier is not None:
                by_tier.setdefault(tier, []).extend(values)
            per_tenant[tid] = {
                "tier": tier,
                "completed": len(values),
                "mean_jct": round(float(np.mean(values)), 3),
                "p50_jct": round(float(np.percentile(values, 50)), 3),
                "p95_jct": round(float(np.percentile(values, 95)), 3),
                "p99_jct": round(float(np.percentile(values, 99)), 3),
                "slo_violations": self.slo_violations.get(tid, 0),
                "admission": dict(
                    self.per_tenant_admission.get(tid, {})
                ),
            }
        per_tier = {
            tier: {
                "completed": len(values),
                "mean_jct": round(float(np.mean(values)), 3),
                "p95_jct": round(float(np.percentile(values, 95)), 3),
            }
            for tier, values in sorted(by_tier.items())
        }
        return {
            "per_tenant": per_tenant,
            "per_tier": per_tier,
            "jain_fairness": round(self.jain_fairness(), 4),
            "admission_rejected": self.admission_rejected,
            "admission_degraded": self.admission_degraded,
            "slo_violations": sum(self.slo_violations.values()),
        }

    def summary(self) -> dict:
        loads = list(self.per_qpu_busy_seconds.values())
        load_spread = 0.0
        load_cv = 0.0
        if loads and max(loads) > 0:
            load_spread = (max(loads) - min(loads)) / max(loads)
            load_cv = float(np.std(loads) / max(1e-9, np.mean(loads)))
        return {
            "load_cv": load_cv,
            "num_shards": self.num_shards,
            "per_shard_jobs": dict(self.per_shard_jobs),
            "peak_inflight_apps": self.peak_inflight_apps,
            "events_processed": self.events_processed,
            "events_per_second": round(self.events_per_second, 1),
            "estimate_cache": dict(self.estimate_cache),
            "completed_jobs": self.completed_jobs,
            "dispatched_jobs": self.dispatched_jobs,
            "unschedulable_jobs": self.unschedulable_jobs,
            "pending_at_horizon": self.pending_at_horizon,
            "scheduling_cycles": self.scheduling_cycles,
            "cycle_batches": self.cycle_batches,
            "rebalance_cycles": self.rebalance_cycles,
            "jobs_migrated": self.jobs_migrated,
            "per_shard_steals": dict(self.per_shard_steals),
            "outage_events": self.outage_events,
            "recovery_events": self.recovery_events,
            "admission_rejected": self.admission_rejected,
            "admission_degraded": self.admission_degraded,
            "mean_fidelity": self.mean_fidelity.mean(),
            "final_mean_jct": self.mean_completion_time.last(),
            "mean_utilization": self.mean_utilization.mean(),
            "max_load_spread": load_spread,
            "per_qpu_busy_seconds": dict(self.per_qpu_busy_seconds),
        }
