"""Shared experiment infrastructure.

Every experiment function returns a plain dict with a ``paper`` sub-dict
(the published numbers) and a ``measured`` sub-dict (ours), so benches can
print side-by-side rows and ``python -m repro.experiments.report`` can
regenerate EXPERIMENTS.md from code.

The cloud figures (6, 8c, 9a, 9b) all measure the paper's window: one
simulated hour of arrivals (:data:`HOUR`) on one shard, through
:func:`run_hour`.  A *drained* run keeps simulating after the hour until
every dispatched job has completed, so per-job means compare the same
jobs in both arms; a *windowed* run stops at the hour and counts only the
work done inside it.  The pure reducers below turn a run into the
figures' numbers.
"""

from __future__ import annotations

from ..backends.fleet import default_fleet
from ..backends.qpu import QPU
from ..cloud import CloudSimulator, LoadGenerator, SimulationConfig
from ..cloud.execution import ExecutionModel
from ..cloud.job import QuantumJob
from ..cloud.metrics import SimulationMetrics, TimeSeries
from ..estimator.estimator import ResourceEstimator
from ..scheduler import SchedulingPolicy
from ..workloads import WorkloadSampler

__all__ = [
    "DRAIN_HORIZON",
    "EIGHT_QPU_NAMES",
    "HOUR",
    "LOAD_AXIS",
    "PAPER_RATE",
    "busy_within",
    "check_drained",
    "make_fleet",
    "run_hour",
    "same_jobs_means",
    "sampled_jobs",
    "trained_estimator",
    "value_at",
]

#: The paper's measuring window (§8.3): one simulated hour of arrivals.
HOUR = 3600.0
#: How long a drained run may take to finish the hour's jobs.  FCFS
#: queues every job on its best-fidelity QPU, and at 1,500 jobs/h that
#: backlog is the last to empty: by ~8,900 s on seeds 5-7.
DRAIN_HORIZON = 4 * HOUR
#: The paper's offered load: IBM's 1,500 jobs/hour (Figs. 6, 9a).
PAPER_RATE = 1500.0
#: One, two and three times the paper's load (Figs. 8c, 9b).
LOAD_AXIS = (1500.0, 3000.0, 4500.0)

#: The paper's eight simulated devices (Fig. 8c's x-axis).
EIGHT_QPU_NAMES = [
    "auckland",
    "lagos",
    "cairo",
    "hanoi",
    "kolkata",
    "mumbai",
    "guadalupe",
    "nairobi",
]

_estimator_cache: dict[int, ResourceEstimator] = {}


def make_fleet(seed: int = 7) -> list[QPU]:
    return default_fleet(seed=seed, names=EIGHT_QPU_NAMES)


def trained_estimator(*, seed: int = 7) -> ResourceEstimator:
    """Train (and cache per-process) the resource estimator for the eight
    QPUs, on 800 records."""
    if seed not in _estimator_cache:
        _estimator_cache[seed] = ResourceEstimator.train_for_fleet(
            make_fleet(seed=seed),
            num_records=800,
            execution_model=ExecutionModel(seed=seed),
            seed=seed,
        )
    return _estimator_cache[seed]


def sampled_jobs(sampler: WorkloadSampler, n: int) -> list[QuantumJob]:
    """``n`` jobs from ``sampler``, with ZNE+REM where a sample asks for
    mitigation."""
    return [
        QuantumJob(
            metrics=s.metrics, shots=s.shots, benchmark=s.benchmark,
            mitigation="zne+rem" if s.uses_mitigation else "none",
        )
        for s in sampler.sample_many(n)
    ]


def run_hour(
    fleet: list[QPU],
    policy: SchedulingPolicy,
    *,
    rate: float,
    seed: int,
    drain: tuple[str, str] | None = None,
    sample_every: float = 120.0,
) -> SimulationMetrics:
    """Offer the paper's hour of arrivals at ``rate`` jobs/h to ``policy``.

    With ``drain=(figure, arm)`` the run goes on until every dispatched
    job completes and raises (:func:`check_drained`) if one has not by
    :data:`DRAIN_HORIZON`.  Without it the run stops at the hour, and its
    ``per_qpu_busy_seconds`` count only the work inside it.
    """
    sim = CloudSimulator(
        fleet,
        policy,
        ExecutionModel(seed=11),
        config=SimulationConfig(
            duration_seconds=DRAIN_HORIZON if drain else HOUR,
            sample_every_seconds=sample_every,
            seed=seed,
        ),
    )
    # The same seed gives the same hour of arrivals in every arm.
    metrics = sim.run(LoadGenerator(mean_rate_per_hour=rate, seed=seed).iter_arrivals(HOUR))
    if drain:
        check_drained(metrics, figure=drain[0], arm=drain[1], rate=rate, seed=seed)
    else:
        metrics.per_qpu_busy_seconds = busy_within(sim.backends, HOUR)
    return metrics


# -- pure reducers ---------------------------------------------------------
def check_drained(
    metrics: SimulationMetrics, *, figure: str, arm: str, rate: float, seed: int
) -> None:
    """Raise unless every dispatched job of the run completed."""
    if metrics.completed_jobs != metrics.dispatched_jobs:
        raise RuntimeError(
            f"{figure}, {arm} arm, {rate:g} jobs/h, seed {seed}: only "
            f"{metrics.completed_jobs} of {metrics.dispatched_jobs} dispatched "
            f"jobs completed within the {DRAIN_HORIZON:g} s drain horizon"
        )


def value_at(series: TimeSeries, t: float) -> float:
    """The series' last sample taken at or before ``t`` (0.0 if none)."""
    values = [v for time, v in zip(series.times, series.values) if time <= t]
    return values[-1] if values else 0.0


def same_jobs_means(metrics: SimulationMetrics) -> dict:
    """Per-job means of a drained run, plus the hour's view of it.

    ``mean_jct`` / ``mean_fidelity`` average every job of the run (the
    running means' last sample); their ``*_censored`` twins average only
    the jobs completed by the end of the hour.  ``utilization`` is the
    utilization sample at the end of the hour: each QPU's busy seconds
    within the hour (:func:`busy_within`) over the hour, averaged over
    QPUs.
    """
    return {
        "mean_jct": metrics.mean_completion_time.last(),
        "mean_fidelity": metrics.mean_fidelity.last(),
        "mean_jct_censored": value_at(metrics.mean_completion_time, HOUR),
        "mean_fidelity_censored": value_at(metrics.mean_fidelity, HOUR),
        "utilization": value_at(metrics.mean_utilization, HOUR),
    }


def busy_within(backends, end: float) -> dict[str, float]:
    """Each backend's busy seconds up to ``end`` of a run stopped there.

    Every job was dispatched by ``end`` and a device runs its queue back
    to back, so its work past ``end`` is the stretch from ``end`` to
    ``free_at`` — the rule the simulator's utilization samples apply.
    """
    return {b.name: b.busy_seconds - max(0.0, b.free_at - end) for b in backends}
