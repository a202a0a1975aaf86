"""Figure 9: scheduler scalability (§8.5, RQ5).

(a) mean JCT vs cluster size; (b) pending-queue stability vs workload;
(c) per-stage scheduler runtime vs cluster size.
"""

from __future__ import annotations

import numpy as np

from ..backends.fleet import fleet_of_size
from ..cloud import (
    CloudSimulator,
    ExecutionModel,
    LoadGenerator,
    SimulationConfig,
)
from ..cloud.job import QuantumJob
from ..scheduler import QonductorScheduler, SchedulingTrigger
from ..workloads import WorkloadSampler
from .common import trained_estimator

__all__ = ["fig9a_cluster_scaling", "fig9b_load_scaling", "fig9c_stage_runtimes"]


def _run_sim(
    num_qpus: int,
    rate: float,
    duration: float,
    seed: int,
    *,
    num_shards: int = 1,
    balancer: str = "least_loaded",
):
    estimator = trained_estimator(seed=7)
    fleet = fleet_of_size(num_qpus, seed=7)
    gen = LoadGenerator(mean_rate_per_hour=rate, seed=seed)
    sim = CloudSimulator.sharded(
        fleet,
        QonductorScheduler(
            estimator.cached(), preference="balanced", seed=seed,
            max_generations=20,
        ),
        num_shards=num_shards,
        balancer=balancer,
        execution_model=ExecutionModel(seed=11),
        trigger_factory=lambda i: SchedulingTrigger(),
        config=SimulationConfig(duration_seconds=duration, seed=seed),
    )
    # Streaming pull keeps memory flat at any rate x duration product.
    return sim.run(gen.iter_arrivals(duration))


def fig9a_cluster_scaling(
    *,
    sizes=(4, 8, 16),
    rate_per_hour: float = 1500.0,
    scale: float = 0.15,
    seed: int = 5,
) -> dict:
    """Mean JCT vs QPU count. Paper: 4->8 improves 52.8 %, 4->16 by 81 %."""
    duration = 3600.0 * scale
    jcts = {}
    for size in sizes:
        metrics = _run_sim(size, rate_per_hour, duration, seed)
        jcts[size] = metrics.summary()["final_mean_jct"]
    base = jcts[sizes[0]]
    return {
        "paper": {"improvement_4_to_8_pct": 52.8, "improvement_4_to_16_pct": 81.0},
        "measured": {
            "mean_jct_by_size": {k: round(v, 1) for k, v in jcts.items()},
            "improvement_4_to_8_pct": 100.0 * (1.0 - jcts[sizes[1]] / base),
            "improvement_4_to_16_pct": 100.0 * (1.0 - jcts[sizes[-1]] / base),
        },
    }


def fig9b_load_scaling(
    *,
    rates=(1500.0, 3000.0, 4500.0),
    num_qpus: int = 8,
    scale: float = 0.15,
    seed: int = 5,
    num_shards: int = 1,
    balancer: str = "least_loaded",
) -> dict:
    """Scheduler queue size vs workload. Paper: stable up to 3x IBM load
    (queue oscillates with the trigger instead of growing unboundedly)."""
    duration = 3600.0 * scale
    result = {}
    for rate in rates:
        metrics = _run_sim(
            num_qpus, rate, duration, seed,
            num_shards=num_shards, balancer=balancer,
        )
        _, values = metrics.scheduler_queue_size.as_arrays()
        # Stability criterion: the queue is drained (returns near zero)
        # repeatedly rather than trending upward.
        drained = int(np.sum(values <= 5))
        result[int(rate)] = {
            "max_queue": int(values.max()) if len(values) else 0,
            "mean_queue": float(values.mean()) if len(values) else 0.0,
            "samples_drained": drained,
            "stable": bool(drained >= max(1, len(values) // 4)),
        }
    return {
        "paper": {"stable_up_to_rate": 4500},
        "measured": {
            "per_rate": result,
            "stable_up_to_rate": max(
                (r for r, v in result.items() if v["stable"]), default=0
            ),
        },
    }


def fig9c_stage_runtimes(
    *,
    sizes=(4, 8, 16),
    jobs: int = 100,
    seed: int = 5,
) -> dict:
    """Per-stage runtimes vs cluster size.

    Paper: only job pre-processing grows (more per-QPU estimations);
    optimization and selection stay ~constant.
    """
    estimator = trained_estimator(seed=7)
    sampler = WorkloadSampler(seed=seed, max_qubits=27, mean_qubits=6, std_qubits=3)
    batch = [
        QuantumJob(
            metrics=s.metrics, shots=s.shots,
            mitigation="zne+rem" if s.uses_mitigation else "none",
            benchmark=s.benchmark,
        )
        for s in sampler.sample_many(jobs)
    ]
    stages = {}
    for size in sizes:
        fleet = fleet_of_size(size, seed=7)
        scheduler = QonductorScheduler(
            estimator.cached(), seed=seed, max_generations=30
        )
        schedule = scheduler.schedule(batch, fleet, {q.name: 0.0 for q in fleet})
        stages[size] = {k: round(v, 4) for k, v in schedule.stage_seconds.items()}
    pre = [stages[s]["preprocess"] for s in sizes]
    opt = [stages[s]["optimize"] for s in sizes]
    return {
        "paper": {
            "preprocess_grows": True,
            "optimize_flat": True,
        },
        "measured": {
            "stage_seconds_by_size": stages,
            "preprocess_grows": bool(pre[-1] > pre[0]),
            # "Flat": optimization grows far slower than the 4x cluster growth.
            "optimize_flat": bool(opt[-1] < opt[0] * 2.5),
        },
    }
