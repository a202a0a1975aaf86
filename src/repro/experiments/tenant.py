"""Multi-tenant isolation study: one abusive tenant vs the front door.

Not a paper figure — an extension past the paper's single-tenant queue.
The scenario puts a bursty (MMPP) arrival stream shared by three normal
tenants and one flooding "abuser" onto a sharded fleet that also loses a
QPU to a mid-run flash outage, and asks the cloud-operator question: how
much of the abuser's load lands on the *premium* tenant's tail latency,
and how much of that does admission control claw back?

Three arms on matched seeds:

* ``no_abuser`` — the normal tenants alone, at the load they alone
  contribute.  The reference tail.
* ``admission_off`` — the abuser floods in with no front door; its queue
  depth is everyone's queue depth.
* ``admission_on`` — the same flood, but an :class:`AdmissionController`
  rate-limits the abuser and degrades its overflow to best effort, and
  the schedulers weight by tier.

The isolation claim (held as a CI perf gate in
``benchmarks/test_perf_simulator.py::test_perf_tenant_isolation``): with
admission on, the premium tenant's p95 JCT sits within a small margin of
the no-abuser reference, and Jain's fairness index improves over the
unprotected run.
"""

from __future__ import annotations

from ..backends.fleet import fleet_of_size
from ..cloud import (
    AdmissionController,
    CloudSimulator,
    ExecutionModel,
    LoadGenerator,
    SimulationConfig,
    TenantShare,
    ThresholdRebalancePolicy,
    abusive_mix,
    flash_outage,
)
from ..scheduler import BatchedFCFSPolicy, SchedulingTrigger
from .rebalance import skew_estimate

__all__ = ["tenant_scenario", "tenant_study"]

#: Share of the offered load the abuser contributes in the abusive arms.
_ABUSER_SHARE = 0.5
#: The abuser's admission limits: arrivals per hour and queued jobs.
_ABUSER_RATE_LIMIT_PER_HOUR = 240.0
_ABUSER_QUEUE_QUOTA = 10
#: The arrival stream's and the simulator's seed in every arm.
_SEED = 3


def _normal_only(mix: tuple[TenantShare, ...]) -> tuple[TenantShare, ...]:
    """The mix with the abuser removed and shares renormalized."""
    normal = [s for s in mix if s.tenant.tenant_id != "abuser"]
    total = sum(s.share for s in normal)
    return tuple(TenantShare(s.tenant, s.share / total) for s in normal)


def tenant_scenario(
    *,
    tenants: tuple[TenantShare, ...],
    admission: AdmissionController | None,
    rate_per_hour: float = 2400.0,
    duration_seconds: float = 1800.0,
) -> tuple[LoadGenerator, CloudSimulator]:
    """One configured arm of the abusive-tenant scenario.

    A bursty MMPP stream carrying ``tenants`` lands on a 3-shard fleet
    behind an optional admission front door, with tenant-aware threshold
    rebalancing and one QPU down from minute 10 to minute 20.  Returns the
    (load generator, simulator) pair; drive it with
    ``sim.run(gen.iter_arrivals(duration_seconds))``.
    """
    gen = LoadGenerator(
        mean_rate_per_hour=rate_per_hour,
        arrival_process="mmpp",
        diurnal=False,
        max_qubits=27,
        tenants=tenants,
        seed=_SEED,
    )
    sim = CloudSimulator.sharded(
        fleet_of_size(6, seed=7),
        BatchedFCFSPolicy(skew_estimate),
        num_shards=3,
        balancer="least_loaded",
        execution_model=ExecutionModel(seed=11),
        trigger_factory=lambda i: SchedulingTrigger(
            queue_limit=10_000, interval_seconds=60
        ),
        config=SimulationConfig(duration_seconds=duration_seconds, seed=_SEED),
        rebalance=ThresholdRebalancePolicy(
            min_gap=8, interval_seconds=30.0, tenant_aware=True
        ),
        availability=flash_outage(["qpu01"], start=600.0, duration_seconds=600.0),
        admission=admission,
    )
    return gen, sim


def tenant_study(
    *,
    rate_per_hour: float = 2400.0,
    duration_seconds: float = 1800.0,
) -> dict:
    """No-abuser vs unprotected vs admission-controlled, matched seeds.

    Expected shape: the unprotected run lets the abuser's backlog queue
    ahead of everyone (premium p95 JCT inflates, Jain's index collapses
    toward 1/n); with the front door on, the abuser is rate-limited and
    degraded to best effort, pulling the premium tail back near the
    no-abuser reference and restoring fairness.
    """
    mix = abusive_mix(
        abuser_share=_ABUSER_SHARE,
        abuser_rate_limit_per_hour=_ABUSER_RATE_LIMIT_PER_HOUR,
        abuser_queue_quota=_ABUSER_QUEUE_QUOTA,
        normal_slo_seconds=duration_seconds / 2,
    )

    def run(tenants, admission, rate):
        gen, sim = tenant_scenario(
            tenants=tenants,
            admission=admission,
            rate_per_hour=rate,
            duration_seconds=duration_seconds,
        )
        m = sim.run(gen.iter_arrivals(duration_seconds))
        report = m.tenant_report()
        tier0 = report["per_tier"][0]
        return {
            "tier0_p95_jct": tier0["p95_jct"],
            "tier0_mean_jct": tier0["mean_jct"],
            "tier0_completed": tier0["completed"],
            "jain_fairness": report["jain_fairness"],
            "admission_rejected": m.admission_rejected,
            "admission_degraded": m.admission_degraded,
            "slo_violations": sum(m.slo_violations.values()),
            "dispatched_jobs": m.dispatched_jobs,
            "per_tenant": report["per_tenant"],
        }

    arms = {
        # The abuser's traffic simply doesn't exist: normal tenants at
        # the offered load they alone contribute.
        "no_abuser": run(
            _normal_only(mix), None, rate_per_hour * (1.0 - _ABUSER_SHARE)
        ),
        "admission_off": run(mix, None, rate_per_hour),
        "admission_on": run(
            mix, AdmissionController(quota_action="degrade"), rate_per_hour
        ),
    }
    reference = arms["no_abuser"]["tier0_p95_jct"]
    protected = arms["admission_on"]["tier0_p95_jct"]
    return {
        "paper": {"single_tenant_queue": True},
        "scenario": {
            "rate_per_hour": rate_per_hour,
            "duration_seconds": duration_seconds,
            "abuser_share": _ABUSER_SHARE,
            "abuser_rate_limit_per_hour": _ABUSER_RATE_LIMIT_PER_HOUR,
            "abuser_queue_quota": _ABUSER_QUEUE_QUOTA,
            "seed": _SEED,
        },
        "arms": arms,
        "isolation": {
            "tier0_p95_no_abuser": reference,
            "tier0_p95_admission_on": protected,
            "tier0_p95_degradation_pct": round(
                100.0 * (protected / reference - 1.0), 1
            ),
            "jain_admission_off": arms["admission_off"]["jain_fairness"],
            "jain_admission_on": arms["admission_on"]["jain_fairness"],
        },
    }
