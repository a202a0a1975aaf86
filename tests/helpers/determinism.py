"""The shared bit-identity / determinism harness.

Every suite that asserts "same seeds -> same run" — the fleet layer, the
parallel engine, the tenancy front door, and the invariants suite — goes
through these helpers, so the definition of *identical* lives in exactly
one place:

* :func:`assert_series_identical` — the per-field comparison over the
  sampled metric series plus the event/dispatch counters, for tests that
  predate :meth:`SimulationMetrics.deterministic_state`.
* :func:`assert_runs_identical` — the strict form: two metrics objects
  must produce equal ``deterministic_state()`` dicts (every field except
  the wall-clock timing allowlist).
* :func:`decision_state` — ``deterministic_state()`` without the two
  counters of how cycles were grouped into engine batches, for pins that
  must hold across a change to that grouping alone.
* :func:`count_asked_and_scored` — the pairs a cached estimator's
  ``best_fidelity`` is asked about and the pairs its fills score, what
  a test reads in place of the cache's lookup counters.
* :func:`fake_estimate` / :func:`make_job` / :func:`make_shards` /
  :func:`run_sharded` — the standard deterministic fixtures the suites
  build scenarios from.
* :class:`PicklingSerialExecutor` — the serial cycle executor with every
  task and result sent through a pickle round trip, the witness that the
  optimization stage is a pure function of a self-contained task.
"""

import pickle

import numpy as np

from repro.backends import default_fleet
from repro.backends.fleet import fleet_of_size
from repro.cloud import (
    CloudSimulator,
    ExecutionModel,
    FleetShard,
    LoadGenerator,
    QuantumJob,
    SerialCycleExecutor,
    SimulatedQPU,
    SimulationConfig,
)
from repro.estimator import (
    CachedEstimator,
    PairwiseEstimateSource,
    RegressionEstimator,
    feasibility_matrix,
)
from repro.scheduler import FCFSPolicy, SchedulingTrigger
from repro.workloads import ghz_linear

__all__ = [
    "SERIES",
    "fake_estimate",
    "make_job",
    "make_shards",
    "run_sharded",
    "TRIGGER_SHAPES",
    "PicklingSerialExecutor",
    "assert_series_identical",
    "assert_runs_identical",
    "decision_state",
    "count_asked_and_scored",
]


def _round_trip(value):
    return pickle.loads(pickle.dumps(value))


class PicklingSerialExecutor(SerialCycleExecutor):
    """Serial execution through a pickle round trip.

    The stage function, each task and each result are pickled and
    unpickled, so a run under this executor equals a plain serial run
    only if a task carries everything its stage reads, the stage is
    importable by name, and a result aliases no live simulator state —
    what a stage replayed from a recorded task relies on.
    """

    def run(self, fn, tasks):
        fn = _round_trip(fn)
        return [_round_trip(fn(_round_trip(task))) for task in tasks]


#: The sampled metric series every identity assertion compares.
SERIES = (
    "mean_fidelity",
    "mean_completion_time",
    "mean_utilization",
    "scheduler_queue_size",
)


@PairwiseEstimateSource
def fake_estimate(job, qpu):
    """Deterministic stand-in estimator: distinct per (job width, QPU)."""
    return 0.5 + 0.4 / (1 + job.num_qubits + len(qpu.name)), 12.0


def make_job(width: int, *, tenant=None, arrival_time: float = 0.0) -> QuantumJob:
    """A circuit-free GHZ job of the given width (optionally tenanted)."""
    job = QuantumJob.from_circuit(ghz_linear(width))
    job.tenant = tenant
    job.arrival_time = arrival_time
    return job


def make_shards(widths_per_shard, policy=None):
    """Shards over slices of the default fleet, one per name bucket.

    ``widths_per_shard`` is a list of QPU-name lists; each becomes one
    :class:`FleetShard` over fresh simulated backends.  ``policy`` (a
    single instance, shared) defaults to FCFS over :func:`fake_estimate`.
    """
    shards = []
    for i, names in enumerate(widths_per_shard):
        backends = [
            SimulatedQPU(q) for q in default_fleet(seed=7, names=list(names))
        ]
        shards.append(
            FleetShard(i, backends, policy or FCFSPolicy(fake_estimate))
        )
    return shards


def run_sharded(policy, executor, *, num_shards=3, duration=700.0,
                rebalance=None, recal=None, tenants=None, admission=None,
                availability=None, fleet_size=6, rate_per_hour=2400,
                load_seed=4, trigger=lambda i: (10_000, 120), pool=None):
    """The standard multi-shard MMPP-burst scenario, fully seeded.

    One knob set shared by the parallel-engine and tenancy bit-identity
    suites; ``tenants``/``admission`` extend it with a tenant mix on the
    load generator and an admission controller on the simulator (both
    ``None`` by default — the tenancy-off configuration), and
    ``availability`` adds an outage model.  ``trigger`` maps a shard id
    to its ``(queue_limit, interval_seconds)``, or is ``None`` for the
    policy's own trigger; ``pool`` draws arrivals from that many circuits
    and two shot counts, so estimates repeat.
    """
    gen = LoadGenerator(
        mean_rate_per_hour=rate_per_hour,
        max_qubits=27,
        arrival_process="mmpp",
        burst_rate_multiplier=6.0,
        mean_burst_seconds=60.0,
        mean_calm_seconds=240.0,
        diurnal=False,
        tenants=tenants,
        circuit_pool_size=pool,
        shots_grid=None if pool is None else (1024, 4096),
        seed=load_seed,
    )
    sim = CloudSimulator.sharded(
        fleet_of_size(fleet_size, seed=7),
        policy,
        num_shards=num_shards,
        execution_model=ExecutionModel(seed=5),
        trigger_factory=(
            None if trigger is None else lambda i: SchedulingTrigger(*trigger(i))
        ),
        config=SimulationConfig(
            duration_seconds=duration, seed=5, recalibrate_every_seconds=recal
        ),
        rebalance=rebalance,
        cycle_executor=executor,
        admission=admission,
        availability=availability,
    )
    return sim.run(gen.generate(duration))


#: Trigger shapes pinned in ``test_policy_contract``: arrival-driven
#: queue limits, staggered interval deadlines, and both at once.  Values
#: are :func:`run_sharded` keywords; a pinned cell adds a policy and a
#: ``load_seed``.
TRIGGER_SHAPES = {
    "queue": dict(duration=500.0, trigger=lambda i: (5, 10_000)),
    "staggered": dict(duration=900.0, trigger=lambda i: (10_000, 50 + 5 * i)),
    "mixed": dict(
        duration=900.0, num_shards=4, fleet_size=8, rate_per_hour=3600,
        trigger=lambda i: (8, 40 + 3 * i),
    ),
}


def assert_series_identical(a, b) -> None:
    """Sampled series and core counters of two runs must match exactly."""
    for attr in SERIES:
        at, av = getattr(a, attr).as_arrays()
        bt, bv = getattr(b, attr).as_arrays()
        assert np.array_equal(at, bt) and np.array_equal(av, bv), attr
    assert a.events_processed == b.events_processed
    assert a.dispatched_jobs == b.dispatched_jobs
    assert a.per_qpu_busy_seconds == b.per_qpu_busy_seconds
    assert a.per_qpu_jobs == b.per_qpu_jobs


def decision_state(metrics) -> dict:
    """``deterministic_state()`` without the two counters of how cycles
    were grouped into engine batches (``cycle_batches``,
    ``max_batch_cycles``): what every scheduling decision, dispatch and
    completion of a run leaves behind."""
    state = metrics.deterministic_state()
    del state["cycle_batches"], state["max_batch_cycles"]
    return state


def count_asked_and_scored(cached, monkeypatch) -> dict:
    """From now on, count the pairs ``cached.best_fidelity`` is asked
    about (``"asked"``: feasible pairs per call) and the pairs the
    fidelity model's ``estimate_pairs`` scores inside those calls
    (``"scored"``); other sources sharing the model count nothing.
    Both wrappers sit on the classes, so ``monkeypatch`` restores them
    whole."""
    counts = {"asked": 0, "scored": 0}
    inside = []
    best_fidelity = CachedEstimator.best_fidelity
    estimate_pairs = RegressionEstimator.estimate_pairs

    def asking(self, jobs, qpus):
        if self is not cached:
            return best_fidelity(self, jobs, qpus)
        counts["asked"] += int(feasibility_matrix(jobs, qpus).sum())
        inside.append(True)
        try:
            return best_fidelity(self, jobs, qpus)
        finally:
            inside.pop()

    def scoring(self, jobs, groups):
        if inside and self.target == "fidelity":
            counts["scored"] += sum(len(idx) for _, idx in groups)
        return estimate_pairs(self, jobs, groups)

    monkeypatch.setattr(CachedEstimator, "best_fidelity", asking)
    monkeypatch.setattr(RegressionEstimator, "estimate_pairs", scoring)
    return counts


def assert_runs_identical(a, b) -> None:
    """Strict bit-identity: every non-timing metrics field must be equal.

    Compares ``deterministic_state()`` field by field first so a failure
    names the differing field instead of dumping two full dicts.
    """
    sa, sb = a.deterministic_state(), b.deterministic_state()
    assert sa.keys() == sb.keys()
    for name in sa:
        assert sa[name] == sb[name], f"field {name!r} differs"
