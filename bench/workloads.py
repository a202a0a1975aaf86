"""The four benchmark workloads: seeded open-loop arrival streams + the
simulator each one drives.

Every workload is an *open loop in simulated time*: the load generator
emits arrivals on its own schedule whatever the fleet does, and the
simulator is run flat-out, so the host-side number is work per second of
host time at a stated input size.  ``seed`` feeds the load generator,
the policy and ``SimulationConfig``; the fleet/estimator seed (7) and
``ExecutionModel(seed=11)`` stay fixed, so two seeds differ only in the
traffic they offer.

Only public names that ROADMAP's planned deletions keep are used here
(no ``pipeline=``, ``warm_start``, ``estimate_matrix``, pair-wise
estimate callables, ``cupy`` or ``CYCLE_PIPELINE``).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

from repro.backends.fleet import fleet_of_size
from repro.cloud import (
    AdmissionController,
    CloudSimulator,
    ExecutionModel,
    LoadGenerator,
    SimulationConfig,
    ThresholdRebalancePolicy,
    abusive_mix,
    flash_outage,
)
from repro.scheduler import (
    BatchedFCFSPolicy,
    FCFSPolicy,
    QonductorScheduler,
    SchedulingTrigger,
)

#: Round shot counts, as cloud users request them (what lets the
#: content-addressed estimate cache hit across jobs).
SHOTS_GRID = (1024, 2048, 4096, 8192)

#: One shared constant shrinking every simulated duration below (the
#: horizon, MMPP burst and calm lengths, the outage window, the
#: recalibration period) from the size the issue probed, 6-11 s of host
#: time per repetition, to about a second.  A run has about 20 s to
#: measure in and must see many repetitions on several traffic seeds to
#: read the same from run to run on this host (see README.md, "Why the
#: repetitions are short").  Rates, fleets, triggers and limits
#: are untouched, so each workload is the probed one in miniature.
DURATION_SHRINK = 0.15

#: Distinct programs users resubmit.  The probe's 512, shrunk with the
#: durations: what the estimate cache sees is the pool relative to the
#: length of the stream, and building the pool must stay ~1% of a run.
CIRCUIT_POOL = round(512 * DURATION_SHRINK)


@dataclass(frozen=True)
class Workload:
    """What ``child.py`` needs of a workload; ``BENCHMARK.json`` holds the
    one line on why it exists."""

    #: Simulated seconds at ``--scale 1``.
    duration_seconds: float
    #: ``(seed, duration, estimator, cycle_executor) -> (stream, sim)``.
    build: Callable[..., tuple[Iterator, CloudSimulator]]


def _qonductor_fresh(seed, duration, estimator, executor):
    # ROADMAP S1, longer: the paper's own regime (Fig. 9b, 3x IBM load).
    # A fresh circuit and log-uniform shots per arrival, so the estimate
    # cache never hits and circuit construction shares the wall with
    # NSGA-II.
    gen = LoadGenerator(mean_rate_per_hour=4500.0, seed=seed)
    sim = CloudSimulator.sharded(
        fleet_of_size(8, seed=7),
        QonductorScheduler(
            estimator.cached(), preference="balanced", seed=seed,
            max_generations=20,
        ),
        num_shards=2,
        balancer="least_loaded",
        execution_model=ExecutionModel(seed=11),
        trigger_factory=lambda i: SchedulingTrigger(),
        config=SimulationConfig(duration_seconds=duration, seed=seed),
        cycle_executor=executor,
    )
    return gen.iter_arrivals(duration), sim


def _fcfs_pool(seed, duration, estimator, executor):
    # ROADMAP S2: per-arrival FCFS over a resubmission pool.
    # Estimator-bound (one-job blocks) and routing-bound; circuits and
    # NSGA-II are out of the picture.  One mid-run recalibration
    # invalidates the shared cache once.
    gen = LoadGenerator(
        mean_rate_per_hour=200_000.0,
        diurnal=False,
        shots_grid=SHOTS_GRID,
        circuit_pool_size=CIRCUIT_POOL,
        seed=seed,
    )
    sim = CloudSimulator.sharded(
        fleet_of_size(64, seed=7),
        FCFSPolicy(estimator.cached()),
        num_shards=8,
        balancer="least_loaded",
        execution_model=ExecutionModel(seed=11),
        config=SimulationConfig(
            duration_seconds=duration,
            recalibrate_every_seconds=duration / 2.0,
            seed=seed,
        ),
        cycle_executor=executor,
    )
    return gen.iter_arrivals(duration), sim


def _qonductor_bursty(seed, duration, estimator, executor):
    # ROADMAP S3's stream on the default engine: queue-limit triggers
    # (15 jobs) under MMPP bursts give ~900 tiny cycles on a warm cache
    # where qonductor_fresh runs ~240 large ones on a cold one.
    gen = LoadGenerator(
        mean_rate_per_hour=9600.0,
        diurnal=False,
        arrival_process="mmpp",
        burst_rate_multiplier=6.0,
        mean_burst_seconds=90.0 * DURATION_SHRINK,
        mean_calm_seconds=360.0 * DURATION_SHRINK,
        shots_grid=SHOTS_GRID,
        circuit_pool_size=CIRCUIT_POOL,
        seed=seed,
    )
    sim = CloudSimulator.sharded(
        fleet_of_size(16, seed=7),
        QonductorScheduler(estimator.cached(), seed=seed, max_generations=20),
        num_shards=4,
        balancer="least_loaded",
        execution_model=ExecutionModel(seed=11),
        trigger_factory=lambda i: SchedulingTrigger(
            queue_limit=15, interval_seconds=100_000.0
        ),
        config=SimulationConfig(duration_seconds=duration, seed=seed),
        cycle_executor=executor,
    )
    return gen.iter_arrivals(duration), sim


def _tenant_outage(seed, duration, estimator, executor):
    # ROADMAP S4's shape on a trained estimator: an abusive tenant behind
    # the admission front door, tenant-aware routing and rebalancing, and
    # two QPUs dark for the middle third of the run.
    gen = LoadGenerator(
        mean_rate_per_hour=24_000.0,
        diurnal=False,
        arrival_process="mmpp",
        mean_burst_seconds=120.0 * DURATION_SHRINK,
        mean_calm_seconds=600.0 * DURATION_SHRINK,
        shots_grid=SHOTS_GRID,
        circuit_pool_size=CIRCUIT_POOL,
        tenants=abusive_mix(
            abuser_share=0.5,
            abuser_rate_limit_per_hour=2400.0,
            abuser_queue_quota=10,
            normal_slo_seconds=900.0,
        ),
        seed=seed,
    )
    sim = CloudSimulator.sharded(
        fleet_of_size(24, seed=7),
        BatchedFCFSPolicy(estimator.cached()),
        num_shards=3,
        balancer="least_loaded",
        execution_model=ExecutionModel(seed=11),
        trigger_factory=lambda i: SchedulingTrigger(
            queue_limit=10_000, interval_seconds=60.0
        ),
        config=SimulationConfig(duration_seconds=duration, seed=seed),
        rebalance=ThresholdRebalancePolicy(
            min_gap=8, interval_seconds=30.0, tenant_aware=True
        ),
        availability=flash_outage(
            ["qpu01", "qpu04"],
            start=duration / 3.0,
            duration_seconds=duration / 3.0,
        ),
        admission=AdmissionController(quota_action="degrade"),
        cycle_executor=executor,
    )
    return gen.iter_arrivals(duration), sim


WORKLOADS: dict[str, Workload] = {
    "qonductor_fresh": Workload(14_400.0 * DURATION_SHRINK, _qonductor_fresh),
    "fcfs_pool": Workload(540.0 * DURATION_SHRINK, _fcfs_pool),
    "qonductor_bursty": Workload(2400.0 * DURATION_SHRINK, _qonductor_bursty),
    "tenant_outage": Workload(7200.0 * DURATION_SHRINK, _tenant_outage),
}
