"""Figure 10: execution-time tradeoff and MCDM priorities (§8.5, RQ3/RQ4).

(a) mean execution time of scheduled jobs: chosen vs front extremes;
(b) JCT-vs-fidelity picks under the three preference vectors.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from ..cloud.execution import speed_factor
from ..scheduler import QonductorScheduler
from ..workloads import WorkloadSampler
from .common import make_fleet, sampled_jobs, trained_estimator
from .fig8 import run_scheduling_cycles

__all__ = ["exec_ceiling_pct", "fig10a_exec_time", "fig10b_priorities"]


def exec_ceiling_pct(widths: Iterable[int], devices: Sequence[tuple[int, float]]) -> float:
    """How far below the slowest device any placement could bring a job's
    execution time, in percent: for each job width, ``100 x (1 - fastest
    / slowest)`` speed factor among the ``(num_qubits, speed)`` devices it
    fits, then the median over jobs."""
    ceilings = []
    for width in widths:
        speeds = [speed for num_qubits, speed in devices if num_qubits >= width]
        ceilings.append(100.0 * (1.0 - min(speeds) / max(speeds)))
    return float(np.median(ceilings))


def fig10a_exec_time(
    *, num_cycles: int = 15, jobs_per_cycle: int = 50, seed: int = 5
) -> dict:
    """Chosen solution's mean execution time vs the front maximum, and
    the ceiling the fleet's speed spread puts on that gap
    (:func:`exec_ceiling_pct` over the scheduled jobs).

    Paper: the chosen solution achieves 63.4 % lower execution time than
    the maximum Pareto front.
    """
    schedules = run_scheduling_cycles(
        num_cycles=num_cycles, jobs_per_cycle=jobs_per_cycle, seed=seed
    )
    chosen, fmin, fmax = [], [], []
    for s in schedules:
        if len(s.front_exec_seconds) == 0:
            continue
        chosen.append(s.stats["mean_exec_seconds"])
        fmin.append(float(s.front_exec_seconds.min()))
        fmax.append(float(s.front_exec_seconds.max()))
    chosen = np.array(chosen)
    fmax = np.array(fmax)
    devices = [(q.num_qubits, speed_factor(q.calibration, q.model)) for q in make_fleet(seed=7)]
    widths = [d.job.num_qubits for s in schedules for d in s.decisions]
    return {
        "paper": {"exec_below_max_pct": 63.4},
        "measured": {
            "exec_below_max_pct": 100.0 * float(np.mean(1.0 - chosen / fmax)),
            "exec_ceiling_pct": exec_ceiling_pct(widths, devices),
            "mean_exec_chosen": float(chosen.mean()),
            "mean_exec_front_max": float(fmax.mean()),
            "mean_exec_front_min": float(np.mean(fmin)),
        },
        "series": {"exec": (np.array(fmin), chosen, fmax)},
    }


def fig10b_priorities(*, num_jobs: int = 100, seed: int = 9) -> dict:
    """One batch of 100 random jobs under jct / balanced / fidelity priority.

    Paper: JCT priority gives 67 % lower JCT than fidelity priority;
    fidelity priority gives 16 % higher fidelity than JCT priority;
    balanced trades 6 % fidelity for 54 % lower JCT.
    """
    fleet = make_fleet(seed=7)
    estimator = trained_estimator(seed=7)
    sampler = WorkloadSampler(seed=seed, max_qubits=27, mean_qubits=6, std_qubits=3)
    jobs = sampled_jobs(sampler, num_jobs)
    # A non-trivial starting queue landscape (hot best devices) so JCT
    # actually differentiates the preferences, as in the live system.
    waiting = {}
    for q in fleet:
        waiting[q.name] = 600.0 / max(0.3, q.calibration.quality_factor) ** 2
    picks = {}
    for pref in ("jct", "balanced", "fidelity"):
        scheduler = QonductorScheduler(
            estimator.cached(), preference=pref, seed=seed,
            max_generations=40, pop_size=80,
        )
        schedule = scheduler.schedule(list(jobs), fleet, dict(waiting))
        picks[pref] = {
            "mean_jct": schedule.stats["mean_jct"],
            "mean_fidelity": schedule.stats["mean_fidelity"],
        }
    jct_saving = 100.0 * (1.0 - picks["jct"]["mean_jct"] / picks["fidelity"]["mean_jct"])
    fid_gain = 100.0 * (
        picks["fidelity"]["mean_fidelity"] / picks["jct"]["mean_fidelity"] - 1.0
    )
    bal_jct = 100.0 * (
        1.0 - picks["balanced"]["mean_jct"] / picks["fidelity"]["mean_jct"]
    )
    bal_fid = 100.0 * (
        1.0 - picks["balanced"]["mean_fidelity"] / picks["fidelity"]["mean_fidelity"]
    )
    return {
        "paper": {
            "jct_priority_saving_pct": 67.0,
            "fidelity_priority_gain_pct": 16.0,
            "balanced_jct_saving_pct": 54.0,
            "balanced_fid_loss_pct": 6.0,
        },
        "measured": {
            "jct_priority_saving_pct": jct_saving,
            "fidelity_priority_gain_pct": fid_gain,
            "balanced_jct_saving_pct": bal_jct,
            "balanced_fid_loss_pct": bal_fid,
            "picks": {
                k: {kk: round(vv, 3) for kk, vv in v.items()}
                for k, v in picks.items()
            },
        },
    }
