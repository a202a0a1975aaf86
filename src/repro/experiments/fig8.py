"""Figure 8: scheduler tradeoff and load balance (§8.5, RQ3).

(a, b) per-cycle Pareto min/max vs the chosen solution for JCT and
fidelity; (c) per-QPU total runtime at increasing workloads.
"""

from __future__ import annotations

import functools

import numpy as np

from ..scheduler import QonductorScheduler
from ..workloads import WorkloadSampler
from .common import LOAD_AXIS, make_fleet, run_hour, sampled_jobs, trained_estimator

__all__ = ["fig8ab_tradeoff", "fig8c_load_balance", "run_scheduling_cycles"]


@functools.cache
def run_scheduling_cycles(*, num_cycles: int = 15, jobs_per_cycle: int = 50, seed: int = 5):
    """Standalone scheduler loop: batch arrivals, schedule, dispatch.

    Returns the per-cycle :class:`QuantumSchedule` tuple. Queue waiting
    evolves realistically: dispatched jobs extend their QPU's backlog.
    The result is shared per arguments: Figs. 8a/b and 10a read the same
    cycles, so a seed's cycles run once.
    """
    fleet = make_fleet(seed=7)
    scheduler = QonductorScheduler(
        trained_estimator(seed=7).cached(), preference="balanced", seed=seed,
        max_generations=30,
    )
    sampler = WorkloadSampler(
        seed=seed, max_qubits=max(q.num_qubits for q in fleet),
        mean_qubits=6.0, std_qubits=3.0,
    )
    waiting = {q.name: 0.0 for q in fleet}
    cycle_seconds = 120.0
    schedules = []
    for _ in range(num_cycles):
        schedule = scheduler.schedule(sampled_jobs(sampler, jobs_per_cycle), fleet, waiting)
        schedules.append(schedule)
        # Advance queues: append dispatched work, drain one cycle of time.
        for dec in schedule.decisions:
            waiting[dec.qpu_name] = waiting.get(dec.qpu_name, 0.0) + dec.est_exec_seconds
        for name in waiting:
            waiting[name] = max(0.0, waiting[name] - cycle_seconds)
    return tuple(schedules)


def fig8ab_tradeoff(
    *, num_cycles: int = 15, jobs_per_cycle: int = 50, seed: int = 5
) -> dict:
    """Chosen solution vs front extremes.

    Paper: chosen mean JCT 34 % below the front max (15.1 % above min);
    chosen fidelity only 4 % below the front max.
    """
    schedules = run_scheduling_cycles(
        num_cycles=num_cycles, jobs_per_cycle=jobs_per_cycle, seed=seed
    )
    jct_chosen, jct_min, jct_max = [], [], []
    fid_chosen, fid_min, fid_max = [], [], []
    for s in schedules:
        if len(s.front_F) == 0:
            continue
        jct_chosen.append(s.stats["mean_jct"])
        jct_min.append(s.front_min_jct)
        jct_max.append(s.front_max_jct)
        fid_chosen.append(s.stats["mean_fidelity"])
        fid_min.append(s.front_min_fidelity)
        fid_max.append(s.front_max_fidelity)
    jct_chosen, jct_max = np.array(jct_chosen), np.array(jct_max)
    jct_min = np.array(jct_min)
    fid_chosen, fid_max = np.array(fid_chosen), np.array(fid_max)
    return {
        "paper": {
            "jct_below_max_pct": 34.0,
            "jct_above_min_pct": 15.1,
            "fid_below_max_pct": 4.0,
        },
        "measured": {
            "jct_below_max_pct": 100.0 * float(np.mean(1.0 - jct_chosen / jct_max)),
            "jct_above_min_pct": 100.0
            * float(np.mean(jct_chosen / np.maximum(jct_min, 1e-9) - 1.0)),
            "fid_below_max_pct": 100.0 * float(np.mean(1.0 - fid_chosen / fid_max)),
            "num_cycles": len(jct_chosen),
        },
        "series": {
            "jct": (jct_min, jct_chosen, jct_max),
            "fidelity": (np.array(fid_min), fid_chosen, fid_max),
        },
    }


def fig8c_load_balance(*, seed: int = 5) -> dict:
    """Per-QPU busy seconds within the hour at 1x/2x/3x the paper's load;
    paper: <= 15.8 % load spread at 1500 j/h."""
    estimator = trained_estimator(seed=7)
    per_rate = {}
    for rate in LOAD_AXIS:
        fleet = make_fleet(seed=7)
        policy = QonductorScheduler(
            estimator.cached(), preference="balanced", seed=seed, max_generations=25,
        )
        loads = run_hour(fleet, policy, rate=rate, seed=seed).per_qpu_busy_seconds
        values = np.array(list(loads.values()))
        # The paper's spread is between comparable devices; our fleet mixes
        # 7/16/27-qubit models with different speeds, so we report the
        # spread over the five same-model 27q devices plus the overall CV.
        v27 = np.array([loads[q.name] for q in fleet if q.num_qubits == 27])
        spread_27 = float((v27.max() - v27.min()) / max(v27.max(), 1e-9))
        cv = float(values.std() / max(1e-9, values.mean()))
        per_rate[int(rate)] = {
            "per_qpu_busy_seconds": {k: round(v, 1) for k, v in loads.items()},
            "load_spread_pct_27q": 100.0 * spread_27,
            "load_cv": cv,
            "qpus_used": int(np.sum(values > 0)),
        }
    return {
        "paper": {"load_spread_pct_at_1500": 15.8},
        "measured": {
            **{
                f"load_spread_pct_at_{rate}": v["load_spread_pct_27q"]
                for rate, v in per_rate.items()
            },
            "per_rate": per_rate,
        },
    }
