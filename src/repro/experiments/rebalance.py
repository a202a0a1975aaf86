"""The skew + flash-outage fleet scenario the rebalancer is stressed on.

Not a paper figure — an extension past the paper's static, always-online
fleet.  The scenario stresses the two assumptions the paper's own
motivation undermines: a width-skewed arrival stream saturates the
tightest-fit shard while wider shards idle, and a mid-run flash outage
halves the hot shard's capacity.  ``benchmarks/test_perf_simulator.py``
runs it with and without a :class:`~repro.cloud.ThresholdRebalancePolicy`
on exactly the same stream and outage schedule.
"""

from __future__ import annotations

from ..backends.fleet import make_fleet
from ..cloud import (
    CloudSimulator,
    ExecutionModel,
    LoadGenerator,
    SimulationConfig,
    flash_outage,
)
from ..estimator.source import PairwiseEstimateSource
from ..scheduler import BatchedFCFSPolicy, SchedulingTrigger

__all__ = [
    "SKEW_FLEET_SPEC",
    "skew_estimate",
    "skew_scenario",
]

#: Wide/mid/narrow interleaved so a 3-shard `partition_fleet` deal is
#: width-segregated (shard 0 all 27q, shard 1 all 16q, shard 2 all 7q).
SKEW_FLEET_SPEC = [
    (name, model, quality)
    for i, quality in enumerate((0.7, 0.9, 1.1, 1.3))
    for name, model in (
        (f"wide{i:02d}", "falcon_r5_27"),
        (f"mid{i:02d}", "falcon_r5_16"),
        (f"narrow{i:02d}", "falcon_r5_7"),
    )
]


def _skew_pair(job, qpu):
    """Deterministic (width, device) synthetic estimates.

    Depends only on the job's width and the device name — never on job
    identity — so every arm scores every job identically and FCFS still
    spreads over a shard's devices (per-width best device varies)."""
    salt = (job.num_qubits * 131 + sum(qpu.name.encode())) % 97
    return 0.6 + 0.3 * salt / 97.0, 12.0


#: The synthetic scorer as the estimate source the policies take.
skew_estimate = PairwiseEstimateSource(_skew_pair)


def skew_scenario(
    *,
    rebalance,
    duration_seconds: float = 3600.0,
    outage_start: float = 900.0,
    outage_seconds: float = 900.0,
    shots_grid: tuple[int, ...] | None = None,
    seed: int = 3,
) -> tuple[LoadGenerator, CloudSimulator]:
    """One configured arm of the skew + flash-outage scenario.

    The scenario of the stress benchmark
    ``test_perf_rebalance_skew_outage``, whose two arms are static
    (``rebalance=None``) and a :class:`~repro.cloud.ThresholdRebalancePolicy`:
    an 8-16q stream is qubit-fit onto the 3-shard wide/mid/narrow fleet
    (the mid shard fits every job tightest, so static routing saturates it
    while the wide shard idles) and two mid QPUs flash out mid-run.
    Returns the (load generator, simulator) pair; drive it with
    ``sim.run(gen.iter_arrivals(duration_seconds))``.
    """
    gen = LoadGenerator(
        mean_rate_per_hour=1200.0,
        diurnal=False,
        mean_qubits=12,
        std_qubits=2,
        min_qubits=8,
        max_qubits=16,
        shots_grid=shots_grid,
        seed=seed,
    )
    sim = CloudSimulator.sharded(
        make_fleet(SKEW_FLEET_SPEC, seed=7),
        BatchedFCFSPolicy(skew_estimate),
        num_shards=3,
        balancer="qubit_fit",
        execution_model=ExecutionModel(seed=11),
        trigger_factory=lambda i: SchedulingTrigger(
            queue_limit=10_000, interval_seconds=60
        ),
        config=SimulationConfig(duration_seconds=duration_seconds, seed=seed),
        rebalance=rebalance,
        availability=flash_outage(
            ["mid00", "mid01"],
            start=outage_start,
            duration_seconds=outage_seconds,
        ),
    )
    return gen, sim

