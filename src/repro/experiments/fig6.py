"""Figure 6: end-to-end performance, Qonductor vs FCFS (§8.3).

Paper: one simulated hour at 1500 applications/hour on 8 QPUs —
fidelity within 3 %, completion times ~48 % lower, utilization ~66 %
higher.
"""

from __future__ import annotations

from ..scheduler import FCFSPolicy, QonductorScheduler
from .common import PAPER_RATE, make_fleet, run_hour, same_jobs_means, trained_estimator

__all__ = ["fig6_end_to_end"]


def _pct_change(base: float, value: float) -> float:
    return 100.0 * (value - base) / max(1e-9, base)


def fig6_end_to_end(*, seed: int = 5) -> dict:
    """Run both policies on the same hour of arrivals, drained, and
    compare the three metrics over the same jobs.

    The ``*_censored`` values compare only the jobs each arm completed
    by the end of the hour.
    """
    estimator = trained_estimator(seed=7)
    policies = {
        "qonductor": QonductorScheduler(
            estimator.cached(), preference="balanced", seed=seed, max_generations=25,
        ),
        "fcfs": FCFSPolicy(estimator.cached()),
    }
    runs = {
        arm: run_hour(
            make_fleet(seed=7), policy, rate=PAPER_RATE, seed=seed, drain=("fig6", arm)
        )
        for arm, policy in policies.items()
    }
    arms = {
        arm: {
            **same_jobs_means(m),
            "load_cv": m.summary()["load_cv"],
            "completed_jobs": m.completed_jobs,
            "dispatched_jobs": m.dispatched_jobs,
        }
        for arm, m in runs.items()
    }
    qon, fcfs = arms["qonductor"], arms["fcfs"]
    return {
        "paper": {
            "fidelity_drop_pct": 3.0,
            "jct_reduction_pct": 48.0,
            "utilization_increase_pct": 66.0,
        },
        "measured": {
            "fidelity_drop_pct": -_pct_change(fcfs["mean_fidelity"], qon["mean_fidelity"]),
            "jct_reduction_pct": -_pct_change(fcfs["mean_jct"], qon["mean_jct"]),
            "utilization_increase_pct": _pct_change(fcfs["utilization"], qon["utilization"]),
            "fidelity_drop_pct_censored": -_pct_change(
                fcfs["mean_fidelity_censored"], qon["mean_fidelity_censored"]
            ),
            "jct_reduction_pct_censored": -_pct_change(
                fcfs["mean_jct_censored"], qon["mean_jct_censored"]
            ),
            **arms,
        },
        "series": {
            f"{arm}_{name}": series.as_arrays()
            for arm, m in runs.items()
            for name, series in (
                ("fidelity", m.mean_fidelity),
                ("jct", m.mean_completion_time),
                ("util", m.mean_utilization),
            )
        },
    }
