"""Event-queue and estimate-cache tests for the event-driven cloud core.

Covers: determinism under seeded arrivals, completion-event aggregates
matching the definitional (rescan) metrics, idle trigger cadence, cache
keying/invalidation on recalibration, eviction bounds, and equivalence of
scheduler decisions with and without the cache on a small fleet.
"""

import hashlib
import math

import numpy as np
import pytest

from repro.backends import default_fleet
from repro.backends.fleet import fleet_of_size
from repro.cloud import (
    AvailabilityModel,
    CloudSimulator,
    ExecutionModel,
    HybridApplication,
    JobStatus,
    LoadGenerator,
    MaintenanceWindow,
    QuantumJob,
    SimulationConfig,
    ThresholdRebalancePolicy,
)
from repro.estimator import (
    CachedEstimator,
    EstimateCache,
    PairwiseEstimateSource,
    ResourceEstimator,
)
from repro.scheduler import (
    BatchedFCFSPolicy,
    FCFSPolicy,
    QonductorScheduler,
    SchedulingTrigger,
)
from repro.workloads import WorkloadSampler, ghz_linear


@PairwiseEstimateSource
def _fake_estimate(job, qpu):
    # Varies by pair so assignment decisions are not degenerate.
    return 0.5 + 0.4 / (1 + job.num_qubits + len(qpu.name)), 12.0


def _run(policy_maker, *, seed=4, duration=900.0, rate=600, recal=None):
    gen = LoadGenerator(mean_rate_per_hour=rate, max_qubits=27, seed=seed)
    apps = gen.generate(duration)
    fleet = default_fleet(seed=7, names=["auckland", "algiers", "lagos"])
    sim = CloudSimulator(
        fleet,
        policy_maker(),
        ExecutionModel(seed=5),
        config=SimulationConfig(
            duration_seconds=duration, seed=5, recalibrate_every_seconds=recal
        ),
    )
    return apps, sim.run(apps)


class TestEventCore:
    def test_deterministic_under_seeded_arrivals(self):
        series = []
        for _ in range(2):
            _, m = _run(lambda: FCFSPolicy(_fake_estimate))
            series.append(m)
        a, b = series
        assert a.completed_jobs == b.completed_jobs
        assert a.events_processed == b.events_processed
        for attr in (
            "mean_fidelity",
            "mean_completion_time",
            "mean_utilization",
            "scheduler_queue_size",
        ):
            at, av = getattr(a, attr).as_arrays()
            bt, bv = getattr(b, attr).as_arrays()
            assert np.array_equal(at, bt) and np.array_equal(av, bv)

    def test_completion_aggregates_match_rescan(self):
        """Running aggregates must equal the definitional rescan metrics."""
        duration = 900.0
        apps, m = _run(lambda: FCFSPolicy(_fake_estimate), duration=duration)
        done = [
            a
            for a in apps
            if a.finish_time is not None and a.finish_time <= duration
        ]
        assert done, "scenario must finish some apps inside the horizon"
        expect_jct = float(np.mean([a.completion_time for a in done]))
        expect_fid = float(
            np.mean([a.quantum_job.fidelity for a in done])
        )
        assert m.mean_completion_time.last() == pytest.approx(expect_jct)
        assert m.mean_fidelity.last() == pytest.approx(expect_fid)
        # Every intermediate sample must equal the prefix rescan too —
        # this is what pins the aggregates to *running* sums/counts: a
        # wrong-window or stale implementation matches the final value
        # by luck far more easily than every point of the series.
        times, values = m.mean_completion_time.as_arrays()
        assert len(times) >= 3
        for t, v in zip(times, values):
            prefix = [
                a.completion_time
                for a in apps
                if a.finish_time is not None and a.finish_time <= t
            ]
            assert v == pytest.approx(float(np.mean(prefix)))

    def test_completed_counts_only_in_horizon_finishers(self):
        """Regression: jobs were counted completed at *dispatch*, so a
        job finishing past the horizon still inflated ``completed_jobs``.
        Completion now means the COMPLETION event folded inside the run;
        everything handed to a device is ``dispatched_jobs``."""
        duration = 900.0
        apps, m = _run(lambda: FCFSPolicy(_fake_estimate), duration=duration)
        in_horizon = [
            a
            for a in apps
            if a.finish_time is not None and a.finish_time <= duration
        ]
        assert m.completed_jobs == len(in_horizon)
        assert m.dispatched_jobs + m.unschedulable_jobs == len(apps)
        # The scenario is loaded enough that some dispatched work drains
        # after the horizon — the two counters must actually differ.
        assert m.completed_jobs < m.dispatched_jobs
        assert m.summary()["dispatched_jobs"] == m.dispatched_jobs

    def test_event_counts(self):
        apps, m = _run(lambda: FCFSPolicy(_fake_estimate))
        # Arrivals + at least the in-horizon completions + samples.
        assert m.events_processed > len(apps)
        assert m.wall_seconds > 0
        assert m.events_per_second > 0

    @pytest.mark.parametrize("given", [False, True], ids=["default", "passed"])
    def test_per_arrival_trigger_pushes_no_deadline(self, given, monkeypatch):
        """A one-job queue limit with no interval: each arrival is a
        one-job cycle, and no TRIGGER entry ever reaches the heap —
        whether the trigger is FCFS's default or passed to a batched
        policy.  No ARRIVAL entry does either: the next arrival waits
        beside the heap."""
        from repro.cloud.simulator import EventType, RunState

        kinds = []
        push = RunState.push

        def recording_push(self, t, kind, payload=None):
            kinds.append(kind)
            push(self, t, kind, payload)

        monkeypatch.setattr(RunState, "push", recording_push)
        per_arrival = SchedulingTrigger(queue_limit=1, interval_seconds=math.inf)
        gen = LoadGenerator(mean_rate_per_hour=600, max_qubits=27, seed=4)
        apps = gen.generate(900.0)
        sim = CloudSimulator(
            default_fleet(seed=7, names=["auckland", "algiers", "lagos"]),
            BatchedFCFSPolicy(_fake_estimate) if given else FCFSPolicy(_fake_estimate),
            ExecutionModel(seed=5),
            trigger=per_arrival if given else None,
            config=SimulationConfig(duration_seconds=900.0, seed=5),
        )
        assert sim.shards[0].trigger == per_arrival
        m = sim.run(apps)
        assert EventType.ARRIVAL not in kinds and EventType.TRIGGER not in kinds
        assert m.dispatched_jobs == m.scheduling_cycles == m.cycle_batches == len(apps)
        assert m.max_batch_cycles == 1 and m.pending_at_horizon == 0

    def test_idle_trigger_cadence(self):
        """With no arrivals the trigger ticks but never schedules."""
        fleet = default_fleet(seed=7, names=["lagos"])
        sim = CloudSimulator(
            fleet,
            QonductorScheduler(_fake_estimate, seed=1, max_generations=5),
            ExecutionModel(seed=5),
            trigger=SchedulingTrigger(queue_limit=10, interval_seconds=60),
            config=SimulationConfig(duration_seconds=600.0, seed=1),
        )
        m = sim.run([])
        assert m.scheduling_cycles == 0
        assert m.completed_jobs == 0
        # 9 trigger deadlines (60..540) + 4 samples (120..480) inside t<600.
        assert m.events_processed == 13

    def test_recalibration_still_fires(self):
        fleet = default_fleet(seed=7, names=["lagos"])
        sim = CloudSimulator(
            fleet,
            FCFSPolicy(_fake_estimate),
            ExecutionModel(seed=5),
            config=SimulationConfig(
                duration_seconds=300.0, recalibrate_every_seconds=100.0, seed=1
            ),
        )
        sim.run([])
        assert fleet[0].cycle >= 2

    @pytest.mark.parametrize(
        "field, value",
        [
            ("duration_seconds", 0.0),
            ("duration_seconds", -1.0),
            ("sample_every_seconds", 0.0),
            ("sample_every_seconds", -120.0),
            ("recalibrate_every_seconds", 0.0),
            ("recalibrate_every_seconds", -600.0),
            ("duration_seconds", math.inf),
            ("duration_seconds", math.nan),
            ("sample_every_seconds", math.inf),
            ("sample_every_seconds", math.nan),
            ("recalibrate_every_seconds", math.inf),
            ("recalibrate_every_seconds", math.nan),
        ],
    )
    def test_config_rejects_periods_that_would_hang(self, field, value):
        """Regression: a zero period re-pushed its event at the same
        instant forever (a negative one walked the clock backwards) and
        ``run()`` never returned; neither did an infinite horizon, whose
        SAMPLE re-pushed itself forever.  Construct only — nothing here
        may run."""
        with pytest.raises(ValueError, match=f"{field}.*{value!r}"):
            SimulationConfig(**{field: value})

    def test_out_of_order_iterator_fails_loudly(self):
        """Regression: an unordered arrival iterator silently ran the
        clock backwards; lists are still sorted internally."""
        gen = LoadGenerator(mean_rate_per_hour=600, max_qubits=27, seed=4)
        early, late = gen.generate(60.0)[:2]
        assert early.arrival_time < late.arrival_time

        def sim():
            return CloudSimulator(
                default_fleet(seed=7, names=["auckland", "lagos"]),
                FCFSPolicy(_fake_estimate),
                ExecutionModel(seed=5),
                config=SimulationConfig(duration_seconds=600.0, seed=5),
            )

        message = (
            f"app {early.app_id} arrives at {early.arrival_time}, "
            f"after app {late.app_id} at {late.arrival_time}"
        )
        with pytest.raises(ValueError, match=message):
            sim().run(app for app in (late, early))
        assert sim().run([late, early]).dispatched_jobs == 2

    def test_dispatch_to_unknown_qpu_names_shard_and_qpu(self):
        from repro.cloud import SimulationMetrics
        from repro.cloud.simulator import RunState

        sim = CloudSimulator(
            default_fleet(seed=7, names=["lagos"]),
            FCFSPolicy(_fake_estimate),
            ExecutionModel(seed=5),
        )
        st = RunState(
            horizon=600.0, stream=iter(()), metrics=SimulationMetrics()
        )
        job = QuantumJob.from_circuit(ghz_linear(4))
        with pytest.raises(KeyError, match="shard 0 has no QPU named 'nope'"):
            sim._dispatch(st, sim.shards[0], job, "nope", 0.0)

    @pytest.mark.parametrize("stolen", [False, True], ids=["firing", "stolen"])
    def test_same_instant_deadlines_are_one_batch(self, stolen):
        """Three TRIGGER entries at one instant: shards 0 and 1's live
        deadlines and a stale one of shard 2, whose cycle fired on an
        arrival and re-armed it.  The live deadlines run as one batch of
        two synchronous cycles and re-arm; the stale entry is skipped.
        When a rebalance emptied shard 1's queue meanwhile, shard 0 runs
        a batch of one and shard 1 only re-arms its deadline."""
        import heapq

        from repro.cloud import FleetShard, SimulatedQPU, SimulationMetrics
        from repro.cloud.simulator import EventType, RunState
        from repro.scheduler import BatchedFCFSPolicy

        shards = [
            FleetShard(
                i,
                [SimulatedQPU(q) for q in default_fleet(seed=7, names=[name])],
                BatchedFCFSPolicy(_fake_estimate),
                SchedulingTrigger(queue_limit=10, interval_seconds=50.0),
            )
            for i, name in enumerate(["lagos", "auckland", "hanoi"])
        ]
        sim = CloudSimulator(shards=shards, execution_model=ExecutionModel(seed=5))
        st = RunState(
            horizon=600.0, stream=iter(()), metrics=SimulationMetrics()
        )
        for shard in shards[:2]:
            shard.pending = [
                QuantumJob.from_circuit(ghz_linear(4))
                for _ in range(2)
            ]
        shards[2].trigger.fired(20.0)
        for shard_id in (1, 2, 0):
            st.push(50.0, EventType.TRIGGER, shard_id)
        if stolen:
            shards[1].pending = []

        now, _, _, payload = heapq.heappop(st.heap)
        sim._on_trigger(st, now, payload)

        m = st.metrics
        assert m.events_processed == 2  # the same-instant twins
        assert m.cycle_batches == 1
        assert m.scheduling_cycles == m.max_batch_cycles == (1 if stolen else 2)
        assert m.dispatched_jobs == (2 if stolen else 4)
        triggers = sorted(
            (e[0], e[3]) for e in st.heap if e[1] == EventType.TRIGGER
        )
        assert triggers == [(100.0, 0), (100.0, 1)]
        assert shards[2].trigger.next_deadline(50.0) == 70.0


#: sha256 of ``deterministic_state()`` of the aligned-instant run below.
ALIGNED_INSTANTS_PIN = (
    "57c7fbcac0d42cd1c24fcfca430873efe0f7838f45fa032fc5f1af7bb5b8af58"
)


class TestSameInstantOrder:
    """Every kind of event at one instant, with two arrivals among them.

    At t = 120 and t = 240 two arrivals land on a SAMPLE, a RECALIBRATION,
    a REBALANCE tick, an AVAILABILITY flip and shard 1's interval TRIGGER
    deadline (shard 0's queue limit of 2 fires it on the arrival path, so
    its deadlines drift off the grid).  No bench workload has same-instant
    arrivals, so this is what holds the handlers to ``(time, EventType)``
    order, the arrivals to stream order, and the run to its digest.
    """

    ALIGNED = (120.0, 240.0)
    ARRIVALS = (10.0, 60.0, 60.0, 90.0, 120.0, 120.0, 150.0, 240.0, 240.0, 270.0)

    def _run(self):
        from repro.cloud.simulator import EventType

        apps = [
            HybridApplication(
                QuantumJob.from_circuit(ghz_linear(3 + i % 4)), arrival_time=t
            )
            for i, t in enumerate(self.ARRIVALS)
        ]
        sim = CloudSimulator.sharded(
            fleet_of_size(4, seed=7),
            BatchedFCFSPolicy(_fake_estimate),
            num_shards=2,
            execution_model=ExecutionModel(seed=5),
            trigger_factory=lambda i: SchedulingTrigger(
                queue_limit=2 if i == 0 else 10_000, interval_seconds=60.0
            ),
            config=SimulationConfig(
                duration_seconds=300.0,
                sample_every_seconds=120.0,
                recalibrate_every_seconds=120.0,
                seed=5,
            ),
            rebalance=ThresholdRebalancePolicy(min_gap=2, interval_seconds=60.0),
            availability=AvailabilityModel(
                windows=[MaintenanceWindow("qpu01", 120.0, 240.0)]
            ),
        )
        handled = []
        for kind in EventType:
            name = f"_on_{kind.name.lower()}"

            def record(st, now, payload, _kind=kind, _handler=getattr(sim, name)):
                handled.append((now, _kind, payload))
                _handler(st, now, payload)

            setattr(sim, name, record)
        return apps, sim.run(iter(apps)), handled

    def test_handlers_run_in_time_and_kind_order(self):
        from repro.cloud.simulator import EventType

        apps, m, handled = self._run()
        order = [(now, kind) for now, kind, _ in handled]
        assert order == sorted(order)
        arrived = [p for _, kind, p in handled if kind == EventType.ARRIVAL]
        assert arrived == apps
        for instant in self.ALIGNED:
            kinds = [kind for now, kind, _ in handled if now == instant]
            assert kinds.count(EventType.ARRIVAL) == 2
            assert set(EventType) - {EventType.COMPLETION} <= set(kinds), instant
        assert m.events_processed >= len(handled)
        digest = hashlib.sha256(repr(m.deterministic_state()).encode()).hexdigest()
        assert digest == ALIGNED_INSTANTS_PIN


class TestHorizonBoundary:
    """An entry is pushed only when it will pop: a COMPLETION at or before
    the horizon, every other kind (here the 30 s SAMPLE) before it.
    Twelve arrivals in the first minute queue on one device, so their
    completions spread far past the last arrival."""

    def _run(self, horizon):
        apps = [
            HybridApplication(
                QuantumJob.from_circuit(ghz_linear(3 + i % 5)), arrival_time=5.0 * i
            )
            for i in range(12)
        ]
        sim = CloudSimulator(
            default_fleet(seed=7, names=["lagos"]),
            FCFSPolicy(_fake_estimate),
            ExecutionModel(seed=5),
            config=SimulationConfig(
                duration_seconds=horizon, sample_every_seconds=30.0, seed=5
            ),
        )
        return apps, sim.run(apps)

    def test_nothing_past_the_horizon_is_pushed_and_a_completion_at_it_folds(
        self, monkeypatch
    ):
        from repro.cloud.simulator import EventType, RunState

        apps, first = self._run(3600.0)
        finishes = sorted(a.finish_time for a in apps)
        assert first.completed_jobs == first.dispatched_jobs == len(apps)
        horizon = finishes[len(finishes) // 2]
        assert horizon > max(a.arrival_time for a in apps)

        pushed = []
        push = RunState.push

        def recording_push(self, t, kind, payload=None):
            pushed.append((t, kind))
            push(self, t, kind, payload)

        monkeypatch.setattr(RunState, "push", recording_push)
        rerun, m = self._run(horizon)
        assert sorted(a.finish_time for a in rerun) == finishes
        assert max(finishes) > horizon
        assert all(
            t <= horizon if kind == EventType.COMPLETION else t < horizon
            for t, kind in pushed
        )
        assert (horizon, EventType.COMPLETION) in pushed
        assert (90.0, EventType.SAMPLE) in pushed
        assert m.completed_jobs == sum(t < horizon for t in finishes) + 1
        assert m.dispatched_jobs == first.dispatched_jobs


@pytest.mark.parametrize("policy_cls", [FCFSPolicy, BatchedFCFSPolicy])
class TestEdgeConfigurations:
    """The engine at the edges ``Qonductor.invoke`` leans on — one
    arrival, a horizon that ends before anything is sampled or completed —
    and the ones next to them, per-arrival and batched.  Every arrival
    lands in exactly one of dispatched / unschedulable / pending /
    rejected."""

    #: Shorter than the 120 s sample and trigger intervals, and than the
    #: ~8 s a job arriving at t = 10 s needs to complete.
    HORIZON = 12.0

    def _simulate(self, policy_cls, widths, *, names=("auckland", "lagos"), **engine):
        apps = [
            HybridApplication(
                QuantumJob.from_circuit(ghz_linear(width)),
                arrival_time=10.0,
            )
            for width in widths
        ]
        sim = CloudSimulator(
            default_fleet(seed=7, names=list(names)),
            policy_cls(_fake_estimate),
            ExecutionModel(seed=5),
            trigger=SchedulingTrigger(queue_limit=1),
            config=SimulationConfig(duration_seconds=self.HORIZON, seed=5),
            **engine,
        )
        m = sim.run(apps)
        assert (
            m.dispatched_jobs
            + m.unschedulable_jobs
            + m.pending_at_horizon
            + m.admission_rejected
            == len(apps)
        )
        return [a.quantum_job for a in apps], m

    def test_empty_stream(self, policy_cls):
        _, m = self._simulate(policy_cls, [])
        assert m.events_processed == 0
        assert m.dispatched_jobs == m.completed_jobs == m.scheduling_cycles == 0

    def test_horizon_shorter_than_the_sample_interval(self, policy_cls):
        """The job record is filled at dispatch, though the COMPLETION
        lands past the horizon and nothing was sampled on the way."""
        (job,), m = self._simulate(policy_cls, [5])
        assert m.dispatched_jobs == 1 and m.completed_jobs == 0
        assert job.status is JobStatus.COMPLETED
        assert job.assigned_qpu in ("auckland", "lagos")
        assert 0.0 <= job.fidelity <= 1.0 and job.quantum_seconds > 0.0
        assert job.start_time == 10.0
        assert job.finish_time == 10.0 + job.quantum_seconds > self.HORIZON
        assert len(m.mean_utilization.times) == 1  # the horizon's own sample

    def test_job_wider_than_every_device(self, policy_cls):
        (job,), m = self._simulate(policy_cls, [10], names=("lagos",))
        assert m.unschedulable_jobs == 1 and m.dispatched_jobs == 0
        assert job.status is JobStatus.FAILED and job.assigned_qpu is None

    def test_every_qpu_offline_for_the_whole_run(self, policy_cls):
        """A job that fits only offline hardware is retained through the
        outage, per-arrival or batched (docs/ARCHITECTURE.md, "Outages:
        one rule"), and reported pending at the horizon."""
        windows = [
            MaintenanceWindow(name, 0.0, 2 * self.HORIZON)
            for name in ("auckland", "lagos")
        ]
        (job,), m = self._simulate(
            policy_cls, [5], availability=AvailabilityModel(windows=windows)
        )
        assert m.dispatched_jobs == 0 and m.outage_events == 2
        assert (m.unschedulable_jobs, m.pending_at_horizon) == (0, 1)
        assert job.status is JobStatus.QUEUED


#: All pairs feasible: the cache tests score circuits of up to 21 qubits on
#: the 7-qubit lagos, and ``estimate_block`` skips an infeasible pair.
_ONE_FEASIBLE_PAIR = np.ones((1, 1), dtype=bool)


def _estimate(source, job, qpu):
    """One (job, qpu) pair through ``source.estimate_block``."""
    fid, sec = source.estimate_block([job], [qpu], _ONE_FEASIBLE_PAIR)
    return fid.item(), sec.item()


class TestEstimateCache:
    def test_hits_on_repeat_and_epoch_invalidation(self):
        calls = []

        def base(job, qpu):
            calls.append((job.job_id, qpu.name))
            return 0.9, 10.0

        qpu = default_fleet(seed=7, names=["lagos"])[0]
        cached = CachedEstimator(base)
        job = QuantumJob.from_circuit(ghz_linear(5), shots=1024)
        assert _estimate(cached, job, qpu) == (0.9, 10.0)
        assert _estimate(cached, job, qpu) == (0.9, 10.0)
        assert len(calls) == 1  # second lookup hit
        # Same circuit shape in a different job object: content-addressed.
        twin = QuantumJob.from_circuit(ghz_linear(5), shots=1024)
        _estimate(cached, twin, qpu)
        assert len(calls) == 1
        # A new calibration epoch must miss.
        qpu.recalibrate()
        _estimate(cached, job, qpu)
        assert len(calls) == 2
        assert cached.stats.hits == 2 and cached.stats.misses == 2

    def test_on_recalibration_invalidates(self):
        qpu = default_fleet(seed=7, names=["lagos"])[0]
        cached = CachedEstimator(lambda j, q: (0.8, 5.0))
        job = QuantumJob.from_circuit(ghz_linear(4), shots=2048)
        _estimate(cached, job, qpu)
        assert len(cached.cache) == 1
        cached.on_recalibration([qpu])
        assert len(cached.cache) == 0
        assert cached.stats.invalidations == 1

    def test_eviction_bound(self):
        cache = EstimateCache(max_entries=10)
        for i in range(25):
            cache.put(("fp", i), (0.5, 1.0))
        assert len(cache) <= 10
        # Newest entries survive the oldest-out eviction.
        assert cache.get(("fp", 24)) is not None

    def test_eviction_bound_degenerate(self):
        cache = EstimateCache(max_entries=1)
        for i in range(5):
            cache.put(("fp", i), (0.5, 1.0))
        assert len(cache) == 1
        assert cache.get(("fp", 4)) is not None

    def test_working_set_below_capacity_never_evicts(self):
        """A working set under ``max_entries`` reaches steady state: one
        miss per distinct shape, every revisit a hit, no eviction churn."""
        calls = []

        def base(job, qpu):
            calls.append(job.job_id)
            return 0.9, 10.0

        qpu = default_fleet(seed=7, names=["lagos"])[0]
        cached = CachedEstimator(base, max_entries=64)
        pool = [
            QuantumJob.from_circuit(ghz_linear(w), shots=1024)
            for w in range(2, 22)  # 20 distinct shapes
        ]
        for _ in range(5):
            for job in pool:
                _estimate(cached, job, qpu)
        assert len(calls) == len(pool)  # first round only
        assert len(cached.cache) == len(pool)
        assert cached.stats.misses == len(pool)
        assert cached.stats.hits == len(pool) * 4

    def test_working_set_at_capacity_evicts_one_coldest(self):
        """At ``max_entries`` the oldest-out eviction drops exactly one
        entry per overflow — the oldest inserted — so the table stays
        *full* under churn instead of halving (the old generational
        scheme dumped half the table, hot keys included)."""
        calls = []

        def base(job, qpu):
            calls.append(job.job_id)
            return 0.9, 10.0

        qpu = default_fleet(seed=7, names=["lagos"])[0]
        cached = CachedEstimator(base, max_entries=16)
        pool = [
            QuantumJob.from_circuit(ghz_linear(w), shots=1024)
            for w in range(2, 18)  # exactly max_entries shapes
        ]
        for job in pool:
            _estimate(cached, job, qpu)
        assert len(cached.cache) == 16
        # One more distinct shape overflows: only the single oldest
        # entry drops, the table stays full.
        extra = QuantumJob.from_circuit(ghz_linear(20), shots=1024)
        _estimate(cached, extra, qpu)
        assert len(cached.cache) == 16
        # The oldest shape was the victim; the rest survive.
        before = len(calls)
        _estimate(cached, pool[-1], qpu)  # recent entry: still cached
        assert len(calls) == before
        _estimate(cached, pool[0], qpu)  # oldest entry: evicted, re-estimated
        assert len(calls) == before + 1
        # However the stream churns, the bound holds.
        for w in range(30, 60):
            _estimate(cached, QuantumJob.from_circuit(ghz_linear(w), shots=1024), qpu)
            assert len(cached.cache) <= 16

    def test_capacity_sweep_degrades_gracefully(self):
        """Hit rate vs ``max_entries`` on a scheduling-shaped stream:
        50-job blocks against an 8-QPU fleet, drawn from a 256-program
        resubmission pool with round shot counts.  Keys do not depend on
        the estimate, so a constant base measures the eviction policy
        alone.  A cap past the working set serves the stream almost
        entirely from memo; at the largest cap below it oldest-out
        eviction, one entry per overflow, keeps the table full and most
        recent keys serving (the generational halving it replaced fell
        to near zero there)."""
        fleet = fleet_of_size(8, seed=7)
        gen = LoadGenerator(
            mean_rate_per_hour=20_000.0,
            diurnal=False,
            shots_grid=(1024, 2048, 4096, 8192),
            circuit_pool_size=256,
            seed=13,
        )
        apps = gen.generate(1800.0)
        blocks = [
            [a.quantum_job for a in apps[i : i + 50]]
            for i in range(0, len(apps), 50)
        ]
        hit_rate, entries = {}, {}
        for max_entries in (64, 256, 1024, 4096, 16384):
            cached = CachedEstimator(lambda j, q: (0.5, 1.0), max_entries=max_entries)
            for block in blocks:
                cached.estimate_block(block, fleet)
            hit_rate[max_entries] = cached.stats.hit_rate
            entries[max_entries] = len(cached.cache)
        rates = [hit_rate[k] for k in sorted(hit_rate)]
        assert all(b >= a for a, b in zip(rates, rates[1:]))
        assert rates[-1] > 0.8
        working_set = entries[max(entries)]
        below = [k for k in hit_rate if k < working_set]
        assert below, "the grid no longer brackets the working set"
        assert hit_rate[max(below)] > 0.4


class TestCacheEquivalence:
    @pytest.fixture(scope="class")
    def setup(self):
        names = ("auckland", "algiers")
        estimator = ResourceEstimator.train_for_fleet(
            default_fleet(seed=7, names=list(names)), num_records=150, seed=7
        )
        fleet = default_fleet(seed=7, names=list(names))
        sampler = WorkloadSampler(
            mean_qubits=6,
            std_qubits=3,
            max_qubits=27,
            shots_choices=(1024, 4096),
            seed=9,
        )
        jobs = [
            QuantumJob.from_circuit(
                s.circuit,
                shots=s.shots,
                mitigation="zne+rem" if s.uses_mitigation else "none",
            )
            for s in sampler.sample_many(12)
        ]
        return estimator, fleet, jobs

    def test_matrix_matches_pairwise(self, setup):
        estimator, fleet, jobs = setup
        fid, sec = estimator.cached().estimate_block(jobs, fleet)
        for i, job in enumerate(jobs):
            for k, qpu in enumerate(fleet):
                if job.num_qubits > qpu.num_qubits:
                    assert fid[i, k] == 0.0 and sec[i, k] == 0.0
                    continue
                pf, ps = _estimate(estimator, job, qpu)
                assert fid[i, k] == pytest.approx(pf, rel=1e-9)
                assert sec[i, k] == pytest.approx(ps, rel=1e-9)

    def test_scheduler_decisions_equivalent(self, setup):
        """Same NSGA-II seed, with and without the cache: same assignment."""
        estimator, fleet, jobs = setup
        waiting = {q.name: 0.0 for q in fleet}
        plain = QonductorScheduler(
            PairwiseEstimateSource(lambda job, qpu: _estimate(estimator, job, qpu)),
            seed=3,
            max_generations=10,
        ).schedule(list(jobs), fleet, dict(waiting))
        cached_fn = estimator.cached()
        cached = QonductorScheduler(
            cached_fn, seed=3, max_generations=10
        ).schedule(list(jobs), fleet, dict(waiting))
        a = {d.job.job_id: d.qpu_name for d in plain.decisions}
        b = {d.job.job_id: d.qpu_name for d in cached.decisions}
        assert a == b
        for da, db in zip(plain.decisions, cached.decisions):
            assert da.est_fidelity == pytest.approx(db.est_fidelity, rel=1e-9)
            assert da.est_exec_seconds == pytest.approx(
                db.est_exec_seconds, rel=1e-9
            )
        # Second cached cycle over the same pending set is served from memo.
        before = cached_fn.stats.hits
        QonductorScheduler(cached_fn, seed=3, max_generations=10).schedule(
            list(jobs), fleet, dict(waiting)
        )
        assert cached_fn.stats.hits > before
