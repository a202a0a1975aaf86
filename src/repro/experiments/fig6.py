"""Figure 6: end-to-end performance, Qonductor vs FCFS (§8.3).

Paper: one simulated hour at 1500 applications/hour on 8 QPUs —
fidelity within 3 %, completion times ~48 % lower, utilization ~66 %
higher.
"""

from __future__ import annotations

from ..cloud import (
    CloudSimulator,
    ExecutionModel,
    LoadGenerator,
    SimulationConfig,
)
from ..scheduler import FCFSPolicy, QonductorScheduler
from .common import make_fleet, trained_estimator

__all__ = ["fig6_end_to_end"]


def fig6_end_to_end(
    *,
    scale: float = 0.25,
    rate_per_hour: float = 1500.0,
    seed: int = 5,
    num_shards: int = 1,
    balancer: str = "least_loaded",
) -> dict:
    """Run both policies on identical arrivals; compare the three metrics.

    ``num_shards`` > 1 partitions the fleet with per-shard schedulers and
    routes arrivals through ``balancer`` (the production configuration
    for large fleets; 1 shard reproduces the paper's setup exactly).
    """
    duration = 3600.0 * scale
    estimator = trained_estimator(seed=7)
    gen = LoadGenerator(mean_rate_per_hour=rate_per_hour, seed=seed)

    def run(policy_name: str):
        fleet = make_fleet(seed=7)
        apps = gen.generate(duration)  # same seed -> same arrivals
        em = ExecutionModel(seed=11)
        if policy_name == "qonductor":
            policy = QonductorScheduler(
                estimator.cached(), preference="balanced", seed=seed,
                max_generations=25,
            )
        else:
            policy = FCFSPolicy(estimator.cached())
        sim = CloudSimulator.sharded(
            fleet,
            policy,
            num_shards=num_shards,
            balancer=balancer,
            execution_model=em,
            config=SimulationConfig(duration_seconds=duration, seed=seed),
        )
        return sim.run(apps)

    m_qon = run("qonductor")
    m_fcfs = run("fcfs")
    s_qon, s_fcfs = m_qon.summary(), m_fcfs.summary()
    fid_drop_pct = 100.0 * (
        s_fcfs["mean_fidelity"] - s_qon["mean_fidelity"]
    ) / max(1e-9, s_fcfs["mean_fidelity"])
    jct_red_pct = 100.0 * (
        1.0 - s_qon["final_mean_jct"] / max(1e-9, s_fcfs["final_mean_jct"])
    )
    util_inc_pct = 100.0 * (
        s_qon["mean_utilization"] / max(1e-9, s_fcfs["mean_utilization"]) - 1.0
    )
    return {
        "paper": {
            "fidelity_drop_pct": 3.0,
            "jct_reduction_pct": 48.0,
            "utilization_increase_pct": 66.0,
        },
        "measured": {
            "fidelity_drop_pct": fid_drop_pct,
            "jct_reduction_pct": jct_red_pct,
            "utilization_increase_pct": util_inc_pct,
            "qonductor": {k: v for k, v in s_qon.items() if k != "per_qpu_busy_seconds"},
            "fcfs": {k: v for k, v in s_fcfs.items() if k != "per_qpu_busy_seconds"},
        },
        "series": {
            "qonductor_fidelity": m_qon.mean_fidelity.as_arrays(),
            "fcfs_fidelity": m_fcfs.mean_fidelity.as_arrays(),
            "qonductor_jct": m_qon.mean_completion_time.as_arrays(),
            "fcfs_jct": m_fcfs.mean_completion_time.as_arrays(),
            "qonductor_util": m_qon.mean_utilization.as_arrays(),
            "fcfs_util": m_fcfs.mean_utilization.as_arrays(),
        },
    }
