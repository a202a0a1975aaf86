"""Micro-benchmark for the event-driven cloud core.

Not a paper figure: this harness records throughput (events/sec) and
estimate-cache hit rate for the simulator hot path and writes a JSON
artifact so the perf trajectory is tracked across PRs (CI uploads it from
the non-blocking benchmark job).

The 10k-job stress scenario is the load level the old batch time-stepping
loop could not finish in reasonable time: per-sample rescans of the whole
arrived stream plus per-(job, QPU) estimator calls made it quadratic-ish
in practice. The event core schedules it in seconds.
"""

import contextlib
import json
import os
import pathlib
import time

from conftest import report
from repro.backends.fleet import fleet_of_size
from repro.cloud import (
    CloudSimulator,
    ExecutionModel,
    LoadGenerator,
    SimulationConfig,
    ThresholdRebalancePolicy,
)
from repro.experiments.common import trained_estimator
from repro.experiments.rebalance import skew_scenario
from repro.experiments.tenant import tenant_study
from repro.scheduler import FCFSPolicy, QonductorScheduler, SchedulingTrigger
from repro.scheduler.cycle import run_optimization

ARTIFACT_DIR = pathlib.Path(__file__).parent / "artifacts"

#: Round shot counts, as real cloud users request them; this is what makes
#: the content-addressed estimate cache hit across jobs.
SHOTS_GRID = (1024, 2048, 4096, 8192)


def _run_stress(num_jobs: int, *, num_qpus: int = 8, seed: int = 3):
    """Drive ~num_jobs arrivals through the Qonductor scheduling stack."""
    rate = 20_000.0  # jobs/hour: far past the paper's 3x stability point
    duration = num_jobs / rate * 3600.0
    estimator = trained_estimator(seed=7)
    cached = estimator.cached()
    gen = LoadGenerator(
        mean_rate_per_hour=rate,
        diurnal=False,
        shots_grid=SHOTS_GRID,
        seed=seed,
    )
    apps = gen.generate(duration)
    sim = CloudSimulator(
        fleet_of_size(num_qpus, seed=7),
        QonductorScheduler(cached, seed=seed, max_generations=10),
        ExecutionModel(seed=11),
        trigger=SchedulingTrigger(),
        config=SimulationConfig(
            duration_seconds=duration,
            recalibrate_every_seconds=duration / 2.0,
            seed=seed,
        ),
    )
    t0 = time.perf_counter()
    metrics = sim.run(apps)
    wall = time.perf_counter() - t0
    return apps, metrics, cached, wall


def test_perf_event_core_10k_jobs():
    apps, metrics, cached, wall = _run_stress(10_000)
    scheduled = metrics.dispatched_jobs + metrics.unschedulable_jobs
    result = {
        "paper": {},
        "measured": {
            "jobs": len(apps),
            "scheduled_jobs": scheduled,
            "wall_seconds": round(wall, 3),
            "events_processed": metrics.events_processed,
            "events_per_second": round(metrics.events_per_second, 1),
            "jobs_per_second": round(scheduled / max(wall, 1e-9), 1),
            "scheduling_cycles": metrics.scheduling_cycles,
            "estimate_cache": metrics.estimate_cache,
        },
    }
    report("Perf: event core, 10k-job stress", result,
           keys=list(result["measured"]))

    ARTIFACT_DIR.mkdir(exist_ok=True)
    artifact = ARTIFACT_DIR / "perf_simulator.json"
    artifact.write_text(json.dumps(result["measured"], indent=2) + "\n")

    # The old loop needed minutes here; ``wall_seconds`` is in the
    # artifact, and ``bench/`` owns the claim (no wall-clock gate here).
    assert len(apps) > 9_000
    assert scheduled == len(apps)
    assert metrics.events_processed > len(apps)  # arrivals + completions + ticks
    # Round shot counts + repeated circuit shapes must produce real reuse.
    assert metrics.estimate_cache["hit_rate"] > 0.2


def test_perf_sharded_100k_jobs():
    """Cloud-scale stress: 100k streamed jobs over a 64-QPU, 8-shard fleet.

    Arrivals are pulled lazily from ``iter_arrivals`` (never materialized)
    and drawn from a 512-program resubmission pool, so peak memory is
    independent of the job count; the least-loaded balancer spreads work
    over per-shard FCFS schedulers sharing one estimate cache.
    """
    rate = 200_000.0  # jobs/hour — two orders past the paper's IBM band
    num_jobs = 100_000
    num_shards = 8
    duration = num_jobs / rate * 3600.0
    estimator = trained_estimator(seed=7)
    cached = estimator.cached()
    gen = LoadGenerator(
        mean_rate_per_hour=rate,
        diurnal=False,
        shots_grid=SHOTS_GRID,
        circuit_pool_size=512,
        seed=3,
    )
    sim = CloudSimulator.sharded(
        fleet_of_size(64, seed=7),
        FCFSPolicy(cached),
        num_shards=num_shards,
        balancer="least_loaded",
        execution_model=ExecutionModel(seed=11),
        config=SimulationConfig(
            duration_seconds=duration,
            recalibrate_every_seconds=duration / 2.0,
            seed=3,
        ),
    )
    t0 = time.perf_counter()
    metrics = sim.run(gen.iter_arrivals(duration))
    wall = time.perf_counter() - t0

    scheduled = metrics.dispatched_jobs + metrics.unschedulable_jobs
    result = {
        "paper": {},
        "measured": {
            "jobs": scheduled,
            "num_qpus": 64,
            "num_shards": metrics.num_shards,
            "wall_seconds": round(wall, 3),
            "events_processed": metrics.events_processed,
            "events_per_second": round(metrics.events_per_second, 1),
            "jobs_per_second": round(scheduled / max(wall, 1e-9), 1),
            "peak_inflight_apps": metrics.peak_inflight_apps,
            "per_shard_jobs": metrics.per_shard_jobs,
            "estimate_cache": metrics.estimate_cache,
        },
    }
    report("Perf: sharded fleet, 100k-job stress", result,
           keys=[k for k in result["measured"] if k != "per_shard_jobs"])

    ARTIFACT_DIR.mkdir(exist_ok=True)
    artifact = ARTIFACT_DIR / "perf_sharded_100k.json"
    artifact.write_text(json.dumps(result["measured"], indent=2) + "\n")

    assert scheduled > 95_000
    # Streaming: in-flight applications, not the stream, bound memory.
    assert metrics.peak_inflight_apps <= 10
    # Aggregate state is O(1): completions fold into running sums (value-
    # exact vs a full rescan, enforced per sample point in
    # tests/test_event_core.py), so the only per-run aggregate containers
    # are the sampled series, which track the cadence — never the 100k
    # completions.
    max_samples = int(duration // sim.config.sample_every_seconds) + 2
    assert len(metrics.mean_completion_time.values) <= max_samples
    assert len(metrics.mean_fidelity.values) <= max_samples
    # Every shard took a share of the fleet-wide load.
    assert len(metrics.per_shard_jobs) == num_shards
    assert all(v > 0 for v in metrics.per_shard_jobs.values())
    # The resubmission pool must keep the shared estimate cache hot.
    assert metrics.estimate_cache["hit_rate"] > 0.8


# ---------------------------------------------------------------------------
# Skewed-width + flash-outage stress: work stealing vs static shards
# ---------------------------------------------------------------------------

def _run_skew(rebalance):
    """One arm of the shared skew + flash-outage scenario, at CI scale.

    Every job fits the mid shard tightest, so static routing saturates it
    (~1.2x its service rate) while the wide shard idles; halfway through,
    a flash outage takes two mid QPUs down for 30 minutes.  Work stealing
    is the only mechanism that moves the resulting backlog.
    """
    duration = 7200.0
    gen, sim = skew_scenario(
        rebalance=rebalance,
        duration_seconds=duration,
        outage_start=1800.0,
        outage_seconds=1800.0,
        shots_grid=SHOTS_GRID,
        seed=3,
    )
    t0 = time.perf_counter()
    metrics = sim.run(gen.iter_arrivals(duration))
    return metrics, time.perf_counter() - t0, duration, sim


def test_perf_rebalance_skew_outage():
    static, static_wall, duration, static_sim = _run_skew(None)
    steal, steal_wall, _, _ = _run_skew(
        ThresholdRebalancePolicy(min_gap=8, interval_seconds=30.0)
    )
    s_static, s_steal = static.summary(), steal.summary()
    result = {
        "paper": {},
        "measured": {
            "jobs": static.dispatched_jobs + static.unschedulable_jobs,
            "outage_events": steal.outage_events,
            "static": {
                "load_cv": round(s_static["load_cv"], 4),
                "final_mean_jct": round(s_static["final_mean_jct"], 1),
                "wall_seconds": round(static_wall, 3),
            },
            "work_stealing": {
                "load_cv": round(s_steal["load_cv"], 4),
                "final_mean_jct": round(s_steal["final_mean_jct"], 1),
                "jobs_migrated": steal.jobs_migrated,
                "rebalance_cycles": steal.rebalance_cycles,
                "per_shard_steals": {
                    str(k): v for k, v in steal.per_shard_steals.items()
                },
                "wall_seconds": round(steal_wall, 3),
            },
        },
    }
    report(
        "Perf: work stealing under skewed widths + flash outage",
        result,
        keys=["jobs", "outage_events", "static", "work_stealing"],
    )

    ARTIFACT_DIR.mkdir(exist_ok=True)
    artifact = ARTIFACT_DIR / "perf_rebalance_skew.json"
    artifact.write_text(json.dumps(result["measured"], indent=2) + "\n")

    # Both runs saw the same stream and the same outage.
    assert static.outage_events == steal.outage_events == 2
    assert static.recovery_events == 2
    assert (
        steal.dispatched_jobs + steal.unschedulable_jobs
        == static.dispatched_jobs + static.unschedulable_jobs
    )
    # Work stealing actually moved pending jobs across shards...
    assert steal.jobs_migrated > 0
    assert steal.rebalance_cycles > 0
    # ...and that cut both the busy-seconds imbalance and the final mean
    # JCT versus the static partition.
    assert s_steal["load_cv"] < s_static["load_cv"]
    assert s_steal["final_mean_jct"] < s_static["final_mean_jct"]
    # The static mid shard hotspot is the pathology being fixed: with
    # stealing, the wide shard executes a real share of the work.
    wide_jobs = sum(
        v for k, v in steal.per_qpu_jobs.items() if k.startswith("wide")
    )
    assert wide_jobs > 0
    # O(1) aggregate bound holds here too (sampled series track cadence).
    max_samples = int(duration // static_sim.config.sample_every_seconds) + 2
    assert len(static.mean_completion_time.values) <= max_samples
    assert len(steal.mean_completion_time.values) <= max_samples


# ---------------------------------------------------------------------------
# Tenant isolation: one abusive tenant vs the admission front door
# ---------------------------------------------------------------------------

def test_perf_tenant_isolation():
    """The tenancy gate: one flooding tenant (half the offered load) on a
    bursty mmpp stream with a mid-run flash outage must not be able to
    wreck the premium tenant's tail once the front door is on.

    Three arms on matched seeds (``repro.experiments.tenant_study``):
    the no-abuser reference, the unprotected flood, and the flood behind
    an ``AdmissionController`` + tier-weighted scheduling.  The claim
    held here: admission keeps the premium (tier-0) p95 JCT within 15%
    of the no-abuser reference, and Jain's fairness index improves over
    the unprotected run.
    """
    t0 = time.perf_counter()
    study = tenant_study()
    wall = time.perf_counter() - t0

    arms, iso = study["arms"], study["isolation"]
    result = {
        "paper": {"single_tenant_queue": True},
        "measured": {
            "scenario": study["scenario"],
            "wall_seconds": round(wall, 3),
            "isolation": iso,
            "arms": {
                name: {k: v for k, v in arm.items() if k != "per_tenant"}
                for name, arm in arms.items()
            },
        },
    }
    report(
        "Perf: tenant isolation (abusive tenant + burst + flash outage)",
        result,
        keys=["scenario", "wall_seconds", "isolation"],
    )

    ARTIFACT_DIR.mkdir(exist_ok=True)
    artifact = ARTIFACT_DIR / "perf_tenant_isolation.json"
    artifact.write_text(json.dumps(result["measured"], indent=2) + "\n")

    # The scenario actually bit: the abuser flooded (front door engaged)
    # and every arm saw the flash outage's extra scheduling pressure.
    on = arms["admission_on"]
    assert on["admission_rejected"] + on["admission_degraded"] > 0
    assert arms["admission_off"]["admission_rejected"] == 0
    for arm in arms.values():
        assert arm["tier0_completed"] > 50  # p95 is over a real sample
    # Isolation: with admission on, the premium tenant's p95 JCT sits
    # within 15% of the world where the abuser doesn't exist at all...
    assert iso["tier0_p95_degradation_pct"] <= 15.0, (
        f"premium p95 degraded {iso['tier0_p95_degradation_pct']:+.1f}% "
        f"vs no-abuser reference ({iso['tier0_p95_no_abuser']:.0f}s -> "
        f"{iso['tier0_p95_admission_on']:.0f}s)"
    )
    # ...and fairness across tenants improves over the unprotected run.
    assert iso["jain_admission_on"] > iso["jain_admission_off"], (
        f"Jain {iso['jain_admission_off']:.4f} -> "
        f"{iso['jain_admission_on']:.4f} did not improve"
    )


# ---------------------------------------------------------------------------
# Batched estimate blocks vs the per-pair estimator loop
# ---------------------------------------------------------------------------

def test_perf_batched_estimates():
    """The estimate-source gate: scoring a 200-job x 16-QPU block through
    ``estimate_block`` must beat a per-pair loop of 1 x 1 blocks by >=3x
    (the batch path runs one stacked model pass instead of 200 x 16
    feature builds and predictions).  The per-arrival shape
    gets its own row: a cold 1 x 8 block (what ``bench/``'s ``fcfs_pool``
    issues per arrival) through the stacked fill must beat the per-QPU
    loop it replaced (kept in ``tests/helpers``) by >=3x too."""
    from helpers.reference_estimates import reference_cached_block
    from repro.cloud.job import QuantumJob
    from repro.estimator import CachedEstimator, feasibility_matrix
    from repro.workloads import WorkloadSampler

    num_jobs, num_qpus = 200, 16
    estimator = trained_estimator(seed=7)
    fleet = fleet_of_size(num_qpus, seed=7)
    sampler = WorkloadSampler(
        mean_qubits=8, std_qubits=4, max_qubits=27,
        shots_choices=SHOTS_GRID, seed=9,
    )
    jobs = [
        QuantumJob.from_circuit(
            s.circuit,
            shots=s.shots,
            mitigation="zne+rem" if s.uses_mitigation else "none",
        )
        for s in sampler.sample_many(num_jobs)
    ]
    feas = feasibility_matrix(jobs, fleet)

    # Warm both paths once so one-time costs (feature caches) don't skew
    # either side.
    estimator.estimate_block(jobs, fleet, feas)
    estimator.estimate_block(jobs[:1], fleet[:1])

    t0 = time.perf_counter()
    fid_pair = [
        [
            estimator.estimate_block([j], [q])[0].item() if feas[i, k] else 0.0
            for k, q in enumerate(fleet)
        ]
        for i, j in enumerate(jobs)
    ]
    pair_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    fid_block, _ = estimator.estimate_block(jobs, fleet, feas)
    block_seconds = time.perf_counter() - t0

    import numpy as np

    np.testing.assert_allclose(
        fid_block, np.array(fid_pair), rtol=0, atol=1e-12
    )
    speedup = pair_seconds / max(block_seconds, 1e-9)

    # Per-arrival shape: every job alone against 8 QPUs, on a cold cache
    # (distinct shots per job, so no block ever hits).
    arrival_qpus = fleet[:8]
    arrival_jobs = [
        QuantumJob(metrics=j.metrics, shots=1000 + i, mitigation=j.mitigation)
        for i, j in enumerate(jobs)
    ]
    arrival_feas = [feasibility_matrix([j], arrival_qpus) for j in arrival_jobs]

    def arrival_stream(block) -> float:
        cached = estimator.cached()
        t0 = time.perf_counter()
        for job, job_feas in zip(arrival_jobs, arrival_feas):
            block(cached, [job], arrival_qpus, job_feas)
        seconds = time.perf_counter() - t0
        assert cached.stats.hits == 0
        return seconds

    # Alternate the two sides and keep each one's best pass, so a slow
    # spell of the host cannot land on one side only.
    arrival_loop_us = arrival_stacked_us = float("inf")
    for _ in range(7):
        arrival_loop_us = min(
            arrival_loop_us, 1e6 / num_jobs * arrival_stream(reference_cached_block)
        )
        arrival_stacked_us = min(
            arrival_stacked_us, 1e6 / num_jobs * arrival_stream(CachedEstimator.estimate_block)
        )
    arrival_speedup = arrival_loop_us / max(arrival_stacked_us, 1e-9)

    result = {
        "paper": {},
        "measured": {
            "jobs": num_jobs,
            "num_qpus": num_qpus,
            "feasible_pairs": int(feas.sum()),
            "trained_pair_seconds": round(pair_seconds, 4),
            "trained_block_seconds": round(block_seconds, 4),
            "trained_block_speedup": round(speedup, 2),
            "arrival_block_qpus": len(arrival_qpus),
            "arrival_block_loop_us": round(arrival_loop_us, 1),
            "arrival_block_stacked_us": round(arrival_stacked_us, 1),
            "arrival_block_speedup": round(arrival_speedup, 2),
        },
    }
    report("Perf: batched estimate blocks", result,
           keys=list(result["measured"]))

    ARTIFACT_DIR.mkdir(exist_ok=True)
    artifact = ARTIFACT_DIR / "perf_batched_estimates.json"
    artifact.write_text(json.dumps(result["measured"], indent=2) + "\n")

    assert speedup >= 3.0, (
        f"estimate_block speedup {speedup:.2f}x < 3x "
        f"({pair_seconds:.3f}s per-pair vs {block_seconds:.3f}s block)"
    )
    assert arrival_speedup >= 3.0, (
        f"cold 1 x 8 block: stacked fill {arrival_stacked_us:.0f}us vs "
        f"per-QPU loop {arrival_loop_us:.0f}us = {arrival_speedup:.2f}x < 3x"
    )


# ---------------------------------------------------------------------------
# Vectorized NSGA-II kernels
# ---------------------------------------------------------------------------

def _best_of(fn, *, repeats=5, inner=20):
    """Best mean-of-``inner`` over ``repeats`` batches (noise-robust)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


def _host_fingerprint():
    """What a recorded time was measured on (times from two hosts, or
    two NumPy builds, are not a before and an after)."""
    import platform

    import numpy as np

    return {
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def test_perf_nsga_kernels():
    """The vectorized-MOO gate: the population-flat evaluate kernel must
    beat the per-individual reference loop by >=5x at a realistic cycle
    shape (single-thread vectorization — no core count required), while
    staying bit-identical; the artifact additionally records end-to-end
    ``run_optimization`` wall clock with and without the kernels.  The
    small-cycle gates: at the 15 x 4 shape of a queue-limit cycle, where
    a generation costs calls and not genes, ``run_optimization`` must
    beat the reference loops by >=1.25x and must not lose to the
    matrix-peel ``front_ranks``, bit-identical to both; ms/generation at
    15 x 4, 54 x 4 and 100 x 8 go into the artifact with the host they
    were measured on.  The sparse mutation (``delta`` only at the genes
    that mutate) must beat the dense formula by >=1.5x at 64 x 58."""
    import numpy as np

    from conftest import matrix_peel_patch, nsga_reference_patch
    from helpers.reference_kernels import (
        evaluate_reference,
        polynomial_mutation_dense,
        repair_reference,
    )
    from repro.cloud.job import QuantumJob
    from repro.moo import Problem, polynomial_mutation
    from repro.scheduler.cycle import OptimizationTask
    from repro.scheduler.formulation import (
        SchedulingInput,
        evaluate_population,
        repair_population,
    )
    from repro.workloads import WorkloadSampler

    # -- 1. population-evaluate kernel vs per-individual reference ------
    pop, n, q = 128, 100, 16
    rng = np.random.default_rng(0)
    data = SchedulingInput(
        fidelity=rng.random((n, q)) * 0.4 + 0.6,
        exec_seconds=rng.random((n, q)) * 100 + 1,
        waiting_seconds=rng.random(q) * 50,
        feasible=rng.random((n, q)) < 0.7,
    )
    X = rng.integers(0, q, size=(pop, n))
    assert np.array_equal(
        evaluate_population(data, X), evaluate_reference(data, X)
    )
    r1, r2 = np.random.default_rng(1), np.random.default_rng(1)
    assert np.array_equal(
        repair_population(data, X.copy(), r1),
        repair_reference(data, X.copy(), r2),
    )
    ref_seconds = _best_of(lambda: evaluate_reference(data, X))
    kernel_seconds = _best_of(lambda: evaluate_population(data, X))
    evaluate_speedup = ref_seconds / max(kernel_seconds, 1e-12)

    # -- 1b. sparse mutation vs the dense formula, one fresh-cycle shape --
    box = Problem(58, 2, 0, 3)
    genes = np.random.default_rng(2).integers(0, 4, size=(64, 58))
    lower_f, upper_f = box.lower.astype(float), box.upper.astype(float)
    scratch = genes.astype(float)
    polynomial_mutation(scratch, lower_f, upper_f, box.span, np.random.default_rng(5))
    assert np.array_equal(
        scratch,
        polynomial_mutation_dense(
            genes, box.lower, box.upper, np.random.default_rng(5)
        ),
    )
    # Both arms pay the int -> float copy (the generation's one cast).
    dense_rng, sparse_rng = np.random.default_rng(6), np.random.default_rng(6)
    dense_seconds = _best_of(
        lambda: polynomial_mutation_dense(genes, box.lower, box.upper, dense_rng),
        inner=200,
    )
    sparse_seconds = _best_of(
        lambda: polynomial_mutation(
            genes.astype(float), lower_f, upper_f, box.span, sparse_rng
        ),
        inner=200,
    )
    mutation_speedup = dense_seconds / max(sparse_seconds, 1e-12)

    # -- 2. end-to-end run_optimization, kernels vs reference loops -----
    estimator = trained_estimator(seed=7).cached()
    fleet = fleet_of_size(8, seed=7)
    sampler = WorkloadSampler(
        mean_qubits=8, std_qubits=4, max_qubits=27,
        shots_choices=SHOTS_GRID, seed=9,
    )
    pending = [
        QuantumJob.from_circuit(s.circuit, shots=s.shots)
        for s in sampler.sample_many(150)
    ]
    sched = QonductorScheduler(estimator, seed=3, max_generations=60)
    plan = sched.begin_cycle(pending, fleet, {b.name: 0.0 for b in fleet})
    task = plan.task

    after_seconds, after = float("inf"), None
    for _ in range(3):
        t0 = time.perf_counter()
        after = run_optimization(task)
        after_seconds = min(after_seconds, time.perf_counter() - t0)
    before_seconds, before = float("inf"), None
    with nsga_reference_patch():
        for _ in range(3):
            t0 = time.perf_counter()
            before = run_optimization(task)
            before_seconds = min(before_seconds, time.perf_counter() - t0)
    # The references consume identical RNG streams: same result, slower.
    assert np.array_equal(before.X, after.X)
    assert np.array_equal(before.F, after.F)
    assert before.generations == after.generations

    # -- 3. small cycles: kernels vs reference loops, sweep vs matrix ---
    small_cycles = {}
    arms = {
        "kernels": contextlib.nullcontext,
        "matrix_peel": matrix_peel_patch,
        "reference": nsga_reference_patch,
    }
    for jobs, qpus in ((15, 4), (54, 4), (100, 8)):
        shape_rng = np.random.default_rng(jobs)
        feasible = shape_rng.random((jobs, qpus)) < 0.7
        feasible[~feasible.any(axis=1), 0] = True
        small = OptimizationTask(
            SchedulingInput(
                fidelity=shape_rng.random((jobs, qpus)) * 0.4 + 0.6,
                exec_seconds=shape_rng.random((jobs, qpus)) * 100 + 1,
                waiting_seconds=shape_rng.random(qpus) * 50,
                feasible=feasible,
            ),
            pop_size=64, max_generations=20, base_seed=3, shard_id=0,
            cycle_index=jobs,
        )
        runs, seconds = {}, dict.fromkeys(arms, float("inf"))
        # Alternate the arms so a host slow spell lands on all of them.
        for _ in range(7):
            for arm, patch in arms.items():
                with patch():
                    t0 = time.perf_counter()
                    for _ in range(5):
                        runs[arm] = run_optimization(small)
                    seconds[arm] = min(
                        seconds[arm], (time.perf_counter() - t0) / 5
                    )
        for arm in ("matrix_peel", "reference"):
            assert np.array_equal(runs[arm].X, runs["kernels"].X)
            assert np.array_equal(runs[arm].F, runs["kernels"].F)
            assert runs[arm].generations == runs["kernels"].generations == 20
        small_cycles[f"{jobs}x{qpus}"] = {
            "pop_size": small.pop_size,
            "generations": runs["kernels"].generations,
            "ms_per_cycle": {
                arm: round(s * 1e3, 3) for arm, s in seconds.items()
            },
            "ms_per_generation": {
                arm: round(s * 1e3 / runs[arm].generations, 4)
                for arm, s in seconds.items()
            },
            "speedup_vs_reference": round(
                seconds["reference"] / seconds["kernels"], 2
            ),
            "speedup_vs_matrix_peel": round(
                seconds["matrix_peel"] / seconds["kernels"], 2
            ),
            "bit_identical": True,
        }

    result = {
        "paper": {},
        "measured": {
            "host": _host_fingerprint(),
            "small_cycles": small_cycles,
            "mutation_kernel": {
                "pop": 64, "genes": 58,
                "dense_us": round(dense_seconds * 1e6, 2),
                "sparse_us": round(sparse_seconds * 1e6, 2),
                "speedup": round(mutation_speedup, 2),
            },
            "evaluate_kernel": {
                "pop": pop, "jobs": n, "qpus": q,
                "reference_ms": round(ref_seconds * 1e3, 4),
                "kernel_ms": round(kernel_seconds * 1e3, 4),
                "speedup": round(evaluate_speedup, 2),
            },
            "run_optimization": {
                "jobs": task.data.num_jobs,
                "qpus": task.data.num_qpus,
                "pop_size": task.pop_size,
                "generations": after.generations,
                "before_ms": round(before_seconds * 1e3, 2),
                "after_ms": round(after_seconds * 1e3, 2),
                "speedup": round(
                    before_seconds / max(after_seconds, 1e-12), 2
                ),
                "bit_identical": True,
            },
        },
    }
    report(
        "Perf: vectorized NSGA-II kernels",
        result,
        keys=list(result["measured"]),
    )

    ARTIFACT_DIR.mkdir(exist_ok=True)
    artifact = ARTIFACT_DIR / "perf_nsga_kernels.json"
    artifact.write_text(json.dumps(result["measured"], indent=2) + "\n")

    # The tentpole gate: single-thread vectorization, not parallelism.
    assert evaluate_speedup >= 5.0, (
        f"population-evaluate speedup {evaluate_speedup:.2f}x < 5x "
        f"({ref_seconds * 1e3:.3f}ms reference vs "
        f"{kernel_seconds * 1e3:.3f}ms kernel)"
    )
    # Small cycles (a generation costs calls, not genes): the kernels
    # must hold their lead over the reference loops there too, and the
    # two-objective sweep must beat the matrix peel it replaced — the
    # measured 1.17x-1.3x is all of 0.1 ms a generation, so on a shared
    # host the second gate only asks that the sweep wins at all.
    tiny = small_cycles["15x4"]
    assert tiny["speedup_vs_reference"] >= 1.25, tiny
    assert tiny["speedup_vs_matrix_peel"] > 1.0, tiny
    assert mutation_speedup >= 1.5, (
        f"sparse mutation {sparse_seconds * 1e6:.1f}us vs dense "
        f"{dense_seconds * 1e6:.1f}us at 64 x 58 = {mutation_speedup:.2f}x < 1.5x"
    )


# ---------------------------------------------------------------------------
# Workload construction: recipes vs a circuit per arrival
# ---------------------------------------------------------------------------

def test_perf_workload_construction():
    """The recipe gate: iterating the six ``qonductor_fresh`` arrival
    streams (fresh program per arrival, circuits dropped) must beat the
    pre-recipe path — build every circuit, walk it six times — by >=2.5x
    while yielding identical jobs at identical instants."""
    from conftest import eager_workload_patch

    def streams():
        t0 = time.perf_counter()
        content = [
            (j.metrics, j.shots, j.mitigation, j.benchmark, j.arrival_time)
            for seed in range(3000, 3006)
            for j in (
                app.quantum_job
                for app in LoadGenerator(
                    mean_rate_per_hour=4500.0, seed=seed
                ).iter_arrivals(2160.0)
            )
        ]
        return time.perf_counter() - t0, content

    after_seconds, after = min(streams() for _ in range(5))
    with eager_workload_patch():
        before_seconds, before = min(streams() for _ in range(3))
    assert before == after
    speedup = before_seconds / max(after_seconds, 1e-12)

    result = {
        "paper": {},
        "measured": {
            "arrivals": len(after),
            "distinct_metrics": len({row[0] for row in after}),
            "before_ms": round(before_seconds * 1e3, 1),
            "after_ms": round(after_seconds * 1e3, 1),
            "after_us_per_arrival": round(after_seconds * 1e6 / len(after), 2),
            "speedup": round(speedup, 2),
            "content_identical": True,
        },
    }
    report(
        "Perf: workload construction (recipes vs a circuit per arrival)",
        result,
        keys=list(result["measured"]),
    )

    ARTIFACT_DIR.mkdir(exist_ok=True)
    artifact = ARTIFACT_DIR / "perf_workload_construction.json"
    artifact.write_text(json.dumps(result["measured"], indent=2) + "\n")

    assert speedup >= 2.5, (
        f"workload construction speedup {speedup:.2f}x < 2.5x "
        f"({before_seconds * 1e3:.0f}ms eager vs {after_seconds * 1e3:.0f}ms recipes)"
    )
