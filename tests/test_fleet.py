"""Fleet-layer tests: shard/balancer routing, sharded-vs-unsharded
equivalence, and the streaming arrival pipeline.

The load-bearing guarantees: a 1-shard sharded simulator reproduces the
unsharded simulator bit-identically (FCFS) / to 1e-12 (Qonductor), and a
run fed by the lazy arrival iterator matches a run fed the eager list
while holding only in-flight applications in memory.
"""

import numpy as np
import pytest

from repro.backends import default_fleet
from repro.backends.fleet import fleet_of_size
from repro.cloud import (
    CloudSimulator,
    ExecutionModel,
    FleetShard,
    LeastLoadedBalancer,
    LoadGenerator,
    QubitFitBalancer,
    RoundRobinBalancer,
    SimulatedQPU,
    SimulationConfig,
    ThresholdRebalancePolicy,
    make_balancer,
    partition_fleet,
)
from helpers.determinism import (
    SERIES,
    assert_series_identical,
    fake_estimate,
    make_job,
    make_shards,
)
from repro.cloud.fleet import _BACKLOG_SECONDS_PER_JOB, _TENANT_SPREAD_PENALTY
from repro.cloud.tenancy import Tenant
from repro.estimator import CachedEstimator, PairwiseEstimateSource, ResourceEstimator
from repro.scheduler import (
    BatchedFCFSPolicy,
    FCFSPolicy,
    QonductorScheduler,
    SchedulingTrigger,
)


class TestPartition:
    def test_interleaved_deal(self):
        fleet = fleet_of_size(8, seed=7)
        groups = partition_fleet(fleet, 3)
        assert [len(g) for g in groups] == [3, 3, 2]
        assert [q.name for q in groups[0]] == ["qpu00", "qpu03", "qpu06"]
        flat = {q.name for g in groups for q in g}
        assert flat == {q.name for q in fleet}

    def test_rejects_bad_counts(self):
        fleet = fleet_of_size(4, seed=7)
        with pytest.raises(ValueError):
            partition_fleet(fleet, 0)
        with pytest.raises(ValueError):
            partition_fleet(fleet, 5)

    def test_make_balancer(self):
        assert isinstance(make_balancer("round_robin"), RoundRobinBalancer)
        rr = RoundRobinBalancer()
        assert make_balancer(rr) is rr
        with pytest.raises(KeyError):
            make_balancer("bogus")


class TestBalancers:
    def test_round_robin_deterministic_cycle(self):
        shards = make_shards([["auckland"], ["hanoi"], ["cairo"]])
        routed = [
            RoundRobinBalancer(), RoundRobinBalancer()
        ]
        seqs = []
        for balancer in routed:
            seqs.append(
                [balancer.route(make_job(5), shards, 0.0).shard_id
                 for _ in range(7)]
            )
        assert seqs[0] == seqs[1] == [0, 1, 2, 0, 1, 2, 0]

    def test_round_robin_skips_infeasible(self):
        # lagos/nairobi are 7q; auckland is 27q -> wide jobs all on shard 0.
        shards = make_shards([["auckland"], ["lagos"], ["nairobi"]])
        balancer = RoundRobinBalancer()
        picks = [balancer.route(make_job(16), shards, 0.0).shard_id
                 for _ in range(4)]
        assert picks == [0, 0, 0, 0]

    def test_least_loaded_monotonic_spread(self):
        """Routing identical jobs into pending queues visits every shard
        before revisiting any (load grows monotonically with each route)."""
        scheduler = QonductorScheduler(fake_estimate, seed=0)
        shards = make_shards(
            [["auckland"], ["hanoi"], ["cairo"], ["kolkata"]],
            policy=scheduler,
        )
        balancer = LeastLoadedBalancer()
        picks = []
        for _ in range(8):
            shard = balancer.route(make_job(5), shards, 0.0)
            shard.enqueue(make_job(5))  # what the simulator does
            picks.append(shard.shard_id)
        assert picks == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_least_loaded_sees_device_backlog(self):
        shards = make_shards([["auckland"], ["hanoi"]])
        shards[0].backends[0].free_at = 500.0  # deep backlog on shard 0
        assert LeastLoadedBalancer().route(make_job(5), shards, 0.0).shard_id == 1

    def test_qubit_fit_never_routes_to_too_narrow_shard(self):
        shards = make_shards([["lagos"], ["guadalupe"], ["auckland"]])  # 7/16/27
        balancer = QubitFitBalancer()
        rng = np.random.default_rng(0)
        for width in rng.integers(2, 28, size=40):
            shard = balancer.route(make_job(int(width)), shards, 0.0)
            assert shard.max_qubits >= width

    def test_qubit_fit_prefers_tightest(self):
        shards = make_shards([["lagos"], ["guadalupe"], ["auckland"]])  # 7/16/27
        balancer = QubitFitBalancer()
        assert balancer.route(make_job(5), shards, 0.0).shard_id == 0
        assert balancer.route(make_job(10), shards, 0.0).shard_id == 1
        assert balancer.route(make_job(20), shards, 0.0).shard_id == 2


def _reference_load(shard, tenant_id, now):
    """A shard's routing load by definition: queued jobs plus each busy
    device's backlog in job units, plus the spread penalty per pending
    job of the arriving job's tenant (none for an untenanted job)."""
    backlog = 0.0
    for backend in shard.backends:
        if backend.free_at > now:
            backlog += backend.free_at - now
    load = len(shard.pending) + backlog / _BACKLOG_SECONDS_PER_JOB
    if tenant_id is not None:
        load += _TENANT_SPREAD_PENALTY * shard.tenant_pending(tenant_id)
    return load


class TestPickOracle:
    """``LeastLoadedBalancer`` and ``QubitFitBalancer`` pick
    ``min(shards, key=(load, shard_id))`` (width fit first for the
    latter) over random device backlogs, queues and tenant mixes; the
    backlogs and queue depths come from small grids, so exact load ties
    are common and break on the shard id."""

    NAMES = [["auckland", "lagos"], ["hanoi", "nairobi", "algiers"], ["cairo"], ["kolkata", "guadalupe"]]
    TENANTS = [Tenant("a"), Tenant("b"), Tenant("c")]

    def _state(self, rng, now):
        shards = make_shards(self.NAMES)
        for shard in shards:
            for backend in shard.backends:
                backend.free_at = now + float(rng.choice([-20.0, 0.0, 15.0, 30.0, 45.0]))
            for _ in range(int(rng.integers(0, 4))):
                tenant = rng.choice([None, *self.TENANTS])
                shard.enqueue(make_job(int(rng.integers(2, 8)), tenant=tenant))
        return shards

    @pytest.mark.parametrize("seed", range(24))
    def test_picks_are_the_first_minimum(self, seed):
        rng = np.random.default_rng(seed)
        now = float(rng.choice([0.0, 100.0, 1234.5]))
        shards = self._state(rng, now)
        for _ in range(20):
            tenant = rng.choice([None, *self.TENANTS])
            job = make_job(int(rng.integers(2, 28)), tenant=tenant)
            tid = job.tenant_id
            order = [shards[i] for i in rng.permutation(len(shards))]
            want = min(order, key=lambda s: (_reference_load(s, tid, now), s.shard_id))
            assert LeastLoadedBalancer().pick(job, order, now) is want
            width = job.num_qubits
            want = min(
                order,
                key=lambda s: (s.max_qubits - width, _reference_load(s, tid, now), s.shard_id),
            )
            assert QubitFitBalancer().pick(job, order, now) is want
            for balancer in (LeastLoadedBalancer(), QubitFitBalancer()):
                feasible = [s for s in shards if width <= s.max_qubits] or shards
                assert balancer.route(job, shards, now) is balancer.pick(job, feasible, now)

    @pytest.mark.parametrize("tenant", [None, "a"])
    def test_exact_ties_break_on_the_shard_id(self, tenant):
        """Shards 0, 2 and 3 all load 2.0 (two busy devices, or one busy
        device and one queued job); shard 1 loads 3.0.  A tenant's own
        queued job counts against shard 2 only."""
        shards = make_shards(self.NAMES)
        for shard in shards:
            for backend in shard.backends:
                backend.free_at = 130.0
        shards[2].enqueue(make_job(5, tenant=self.TENANTS[1]))
        job = make_job(5, tenant=None if tenant is None else self.TENANTS[0])
        loads = [_reference_load(s, job.tenant_id, 100.0) for s in shards]
        assert loads == [2.0, 3.0, 2.0, 2.0]
        for order in (shards, shards[::-1], [shards[3], shards[2], shards[1]]):
            want = min((s for s in order if loads[s.shard_id] == 2.0), key=lambda s: s.shard_id)
            assert LeastLoadedBalancer().pick(job, order, 100.0) is want

    def test_untenanted_load_is_the_pending_load(self):
        rng = np.random.default_rng(0)
        for shard in self._state(rng, 50.0):
            assert shard.pending_load(50.0) == _reference_load(shard, None, 50.0)


class TestShardedEquivalence:
    NAMES = ("auckland", "algiers", "lagos")

    def _apps(self, seed=4, duration=900.0):
        gen = LoadGenerator(mean_rate_per_hour=600, max_qubits=27, seed=seed)
        return gen.generate(duration)

    def _run(self, policy, *, sharded: bool, duration=900.0, recal=None, limits=None):
        """``limits`` is the trigger's ``(queue_limit, interval_seconds)``;
        ``None`` runs the policy's own trigger."""

        def trigger(shard_id=0):
            return None if limits is None else SchedulingTrigger(*limits)

        fleet = default_fleet(seed=7, names=self.NAMES)
        config = SimulationConfig(
            duration_seconds=duration, seed=5, recalibrate_every_seconds=recal
        )
        if sharded:
            sim = CloudSimulator.sharded(
                fleet,
                policy,
                num_shards=1,
                execution_model=ExecutionModel(seed=5),
                trigger_factory=trigger,
                config=config,
            )
        else:
            sim = CloudSimulator(
                fleet,
                policy,
                ExecutionModel(seed=5),
                trigger=trigger(),
                config=config,
            )
        return sim.run(self._apps(duration=duration))

    def test_one_shard_fcfs_bit_identical(self):
        a = self._run(FCFSPolicy(fake_estimate), sharded=False)
        b = self._run(FCFSPolicy(fake_estimate), sharded=True)
        for attr in SERIES:
            at, av = getattr(a, attr).as_arrays()
            bt, bv = getattr(b, attr).as_arrays()
            assert np.array_equal(at, bt) and np.array_equal(av, bv)
        assert a.completed_jobs == b.completed_jobs
        assert a.dispatched_jobs == b.dispatched_jobs
        assert a.events_processed == b.events_processed
        assert a.scheduling_cycles == b.scheduling_cycles
        assert a.per_qpu_busy_seconds == b.per_qpu_busy_seconds
        assert a.per_qpu_jobs == b.per_qpu_jobs

    def test_one_shard_qonductor_equivalent(self):
        estimator = ResourceEstimator.train_for_fleet(
            default_fleet(seed=7, names=list(self.NAMES)), num_records=150, seed=7
        )

        def make():
            return QonductorScheduler(
                estimator.cached(), seed=5, max_generations=8
            )

        a = self._run(make(), sharded=False, recal=400.0, limits=(20, 60))
        b = self._run(make(), sharded=True, recal=400.0, limits=(20, 60))
        for attr in SERIES:
            at, av = getattr(a, attr).as_arrays()
            bt, bv = getattr(b, attr).as_arrays()
            assert np.array_equal(at, bt)
            assert np.allclose(av, bv, rtol=0.0, atol=1e-12)
        assert a.completed_jobs == b.completed_jobs
        assert a.scheduling_cycles == b.scheduling_cycles
        for name, busy in a.per_qpu_busy_seconds.items():
            assert b.per_qpu_busy_seconds[name] == pytest.approx(
                busy, abs=1e-9
            )

    def test_multi_shard_completes_and_breaks_down(self):
        apps = self._apps()
        fleet = default_fleet(
            seed=7, names=["auckland", "algiers", "cairo", "hanoi"]
        )
        sim = CloudSimulator.sharded(
            fleet,
            FCFSPolicy(fake_estimate),
            num_shards=2,
            balancer="least_loaded",
            execution_model=ExecutionModel(seed=5),
            config=SimulationConfig(duration_seconds=900.0, seed=5),
        )
        m = sim.run(apps)
        assert m.num_shards == 2
        assert m.dispatched_jobs == len(apps)
        assert m.completed_jobs <= m.dispatched_jobs
        assert sum(m.per_shard_jobs.values()) == len(apps)
        assert all(v > 0 for v in m.per_shard_jobs.values())
        assert set(m.shard_queue_size) == {0, 1}
        summary = m.summary()
        assert summary["num_shards"] == 2
        assert summary["per_shard_jobs"] == m.per_shard_jobs

    def test_multi_shard_qonductor_per_shard_cycles(self):
        """Each shard runs its own trigger/scheduler; both shards cycle."""
        apps = self._apps()
        fleet = default_fleet(
            seed=7, names=["auckland", "algiers", "cairo", "hanoi"]
        )
        estimator = ResourceEstimator.train_for_fleet(
            default_fleet(seed=7, names=list(self.NAMES)), num_records=150, seed=7
        )
        cached = estimator.cached()
        sim = CloudSimulator.sharded(
            fleet,
            QonductorScheduler(cached, seed=5, max_generations=5),
            num_shards=2,
            balancer="round_robin",
            execution_model=ExecutionModel(seed=5),
            trigger_factory=lambda i: SchedulingTrigger(
                queue_limit=10, interval_seconds=60
            ),
            config=SimulationConfig(
                duration_seconds=900.0, seed=5, recalibrate_every_seconds=450.0
            ),
        )
        m = sim.run(apps)
        assert m.dispatched_jobs + m.unschedulable_jobs == len(apps)
        assert m.scheduling_cycles >= 2
        # Shared cache across shards: merged counters are reported once.
        assert m.estimate_cache["hits"] + m.estimate_cache["misses"] > 0
        assert cached.stats.invalidations == 1  # one fleet-wide recal

    @pytest.mark.parametrize("ids", [(5, 7), (1, 0)])
    def test_shard_id_must_be_its_position(self, ids):
        """Regression: a TRIGGER names its shard by id and the engine
        looks it up by position, so ids (5, 7) raised a bare IndexError
        mid-run and ids (1, 0) silently ran the wrong shard's cycles."""
        shards = [
            FleetShard(shard_id, [SimulatedQPU(qpu)], BatchedFCFSPolicy(fake_estimate))
            for shard_id, qpu in zip(ids, default_fleet(seed=7, names=["auckland", "hanoi"]))
        ]
        with pytest.raises(ValueError, match=rf"shards\[0\] has shard_id {ids[0]}"):
            CloudSimulator(shards=shards)

    def test_each_estimate_source_hears_a_calibration_wave_once(self):
        """Shards 0 and 1 share a cache, shard 2 has its own and shards 3
        and 4 share a plain source: each wave reaches every source once,
        in the order of the first shard holding it."""
        heard = []

        class LoggedCache(CachedEstimator):
            def on_recalibration(self, qpus):
                heard.append((self, len(qpus)))
                super().on_recalibration(qpus)

        class CountingSource(PairwiseEstimateSource):
            def on_recalibration(self, qpus):
                heard.append((self, len(qpus)))

        shared, own = LoggedCache(fake_estimate), LoggedCache(fake_estimate)
        counting = CountingSource(fake_estimate)
        sources = [shared, shared, own, counting, counting]
        shards = [
            FleetShard(i, [SimulatedQPU(qpu)], BatchedFCFSPolicy(source))
            for i, (qpu, source) in enumerate(zip(fleet_of_size(5, seed=7), sources))
        ]
        config = SimulationConfig(duration_seconds=250.0, recalibrate_every_seconds=100.0)
        m = CloudSimulator(shards=shards, config=config).run([])
        assert heard == [(shared, 5), (own, 5), (counting, 5)] * 2
        assert shared.stats.invalidations == own.stats.invalidations == 2
        assert m.estimate_cache["invalidations"] == 4


class TestRebalancePolicies:
    """Unit tests over the threshold rebalancer (no simulator)."""

    def _batched_shards(self, widths_per_shard):
        return make_shards(
            widths_per_shard, policy=BatchedFCFSPolicy(fake_estimate)
        )

    def test_rebalance_takes_a_policy_or_none(self):
        policy = ThresholdRebalancePolicy(min_gap=8)
        sim = CloudSimulator(
            fleet_of_size(2, seed=7), BatchedFCFSPolicy(fake_estimate), rebalance=policy
        )
        assert sim.rebalancer is policy
        # A strategy name is not a second spelling of an instance.
        with pytest.raises(TypeError, match="ThresholdRebalancePolicy"):
            CloudSimulator(
                fleet_of_size(2, seed=7),
                BatchedFCFSPolicy(fake_estimate),
                rebalance="threshold",
            )
        with pytest.raises(ValueError):
            ThresholdRebalancePolicy(min_gap=1)
        with pytest.raises(ValueError):
            ThresholdRebalancePolicy(interval_seconds=0.0)

    @pytest.mark.parametrize(
        "cls, field, value",
        [
            (ThresholdRebalancePolicy, "interval_seconds", float("nan")),
            (ThresholdRebalancePolicy, "interval_seconds", float("inf")),
            (ThresholdRebalancePolicy, "min_gap", float("nan")),
            (ThresholdRebalancePolicy, "min_gap", float("inf")),
        ],
    )
    def test_non_finite_knob_refused(self, cls, field, value):
        """Regression: ``nan < 2`` is false, so a NaN ``min_gap``
        constructed and then never moved a job, and a NaN
        ``interval_seconds`` never scheduled a REBALANCE tick."""
        with pytest.raises(ValueError, match=f"{cls.__name__}: {field} .*{value!r}"):
            cls(**{field: value})

    def test_threshold_drains_gap(self):
        shards = self._batched_shards([["auckland"], ["hanoi"]])
        jobs = [make_job(5) for _ in range(10)]
        shards[0].pending = list(jobs)
        moves = ThresholdRebalancePolicy(min_gap=4).rebalance(shards, 0.0)
        # 10/0 -> ... -> 6/4: the gap drains until it drops below 4.
        assert len(moves) == 4
        assert shards[0].pending == jobs[:6]
        # Migrated newest-first, but delivered in arrival order so the
        # receiving FCFS batch serves them as they arrived.
        assert shards[1].pending == jobs[6:]
        assert shards[0].jobs_stolen_out == 4
        assert shards[1].jobs_stolen_in == 4
        assert all(m.src is shards[0] and m.dst is shards[1] for m in moves)

    def test_threshold_moves_at_the_gap_and_not_below(self):
        shards = self._batched_shards([["auckland"], ["hanoi"]])
        policy = ThresholdRebalancePolicy(min_gap=4)
        shards[0].pending = [make_job(5) for _ in range(7)]
        shards[1].pending = [make_job(5) for _ in range(4)]
        assert policy.rebalance(shards, 0.0) == []  # a gap of 3
        newest = make_job(5)
        shards[0].enqueue(newest)
        moves = policy.rebalance(shards, 0.0)  # a gap of 4: one move, to 7/5
        assert [m.job for m in moves] == [newest]
        assert [len(s.pending) for s in shards] == [7, 5]

    def test_threshold_feeds_the_shallowest_destination(self):
        """Each move goes to the shallowest eligible queue, ties on the
        lower shard id, so one deep source fills its receivers evenly."""
        shards = self._batched_shards([["auckland"], ["hanoi"], ["cairo"]])
        shards[0].pending = [make_job(5) for _ in range(12)]
        shards[1].pending = [make_job(5) for _ in range(3)]
        shards[2].pending = [make_job(5)]
        moves = ThresholdRebalancePolicy(min_gap=4).rebalance(shards, 0.0)
        assert all(m.src is shards[0] for m in moves)
        # 12/3/1 -> 11/3/2 -> 10/3/3 -> 9/4/3 -> 8/4/4 -> 7/5/4.
        assert [m.dst.shard_id for m in moves] == [2, 2, 1, 2, 1]
        assert [len(s.pending) for s in shards] == [7, 5, 4]

    def test_threshold_respects_feasibility(self):
        # lagos/nairobi are 7q: 16q pending jobs must not migrate there.
        shards = self._batched_shards([["auckland"], ["lagos"]])
        shards[0].pending = [make_job(16) for _ in range(10)]
        assert ThresholdRebalancePolicy(min_gap=2).rebalance(shards, 0.0) == []
        # Mixed queue: only the narrow jobs move.
        shards[0].pending = [make_job(16), make_job(5), make_job(16), make_job(5), make_job(16)]
        moves = ThresholdRebalancePolicy(min_gap=2).rebalance(shards, 0.0)
        assert all(m.job.num_qubits == 5 for m in moves)
        assert all(j.num_qubits == 16 for j in shards[0].pending)

    def test_threshold_stuck_deepest_does_not_stall_fleet(self):
        """A deepest queue whose jobs fit nowhere else (e.g. a stranded
        wide backlog) must not block draining the other shards' gaps."""
        shards = self._batched_shards(
            [["auckland"], ["guadalupe"], ["lagos"]]  # 27q / 16q / 7q
        )
        shards[0].pending = [make_job(20) for _ in range(12)]  # fits only 27q
        narrow = [make_job(5) for _ in range(8)]
        shards[1].pending = list(narrow)
        moves = ThresholdRebalancePolicy(min_gap=4).rebalance(shards, 0.0)
        assert moves, "the feasible 16q->7q gap must still drain"
        assert all(m.src is shards[1] and m.dst is shards[2] for m in moves)
        assert len(shards[0].pending) == 12  # stuck backlog untouched
        # 8/0 drains one job at a time until the gap drops below 4.
        assert len(shards[1].pending) == 5 and len(shards[2].pending) == 3

    def test_threshold_never_ping_pongs_within_a_cycle(self):
        """A receiver that becomes the deepest queue must not bounce a
        just-migrated job back: each job moves at most once per cycle."""
        shards = self._batched_shards(
            [["auckland"], ["hanoi"], ["guadalupe"]]  # 27q / 27q / 16q
        )
        # Four narrow jobs (fit anywhere) then four wide ones (27q only).
        jobs = [make_job(10) for _ in range(4)] + [make_job(20) for _ in range(4)]
        shards[0].pending = list(jobs)
        moves = ThresholdRebalancePolicy(min_gap=2).rebalance(shards, 0.0)
        assert all(m.src is shards[0] for m in moves)
        moved_ids = [m.job.job_id for m in moves]
        assert len(moved_ids) == len(set(moved_ids)) == 6
        assert shards[0].jobs_stolen_in == 0
        assert [len(s.pending) for s in shards] == [2, 4, 2]
        # The wide backlog parked on shard 1 stays put; the migrated
        # tails are in arrival order on both receivers.
        assert shards[1].pending == jobs[4:]
        assert shards[2].pending == [jobs[2], jobs[3]]

    def test_threshold_skips_offline_destination(self):
        shards = self._batched_shards([["auckland"], ["hanoi"]])
        shards[0].pending = [make_job(5) for _ in range(10)]
        shards[1].set_online(shards[1].backends[0].name, False)
        assert ThresholdRebalancePolicy(min_gap=2).rebalance(shards, 0.0) == []

    def test_threshold_batched_drain_matches_reference(self):
        """The resumable-scan drain must make *identical* migration
        decisions to the restart-scan reference algorithm it replaced —
        on the deep-backlog skew shape and on fuzzed width mixes."""

        def reference_rebalance(policy, shards):
            """The pre-batching O(moves x queue) drain, verbatim."""
            moves = []
            received = {}
            moved_ids = set()
            width = {s.shard_id: s.max_qubits for s in shards}
            while True:
                moved = False
                for src in sorted(
                    shards, key=lambda s: (-len(s.pending), s.shard_id)
                ):
                    eligible = [
                        s
                        for s in shards
                        if s is not src
                        and len(src.pending) - len(s.pending)
                        >= policy.min_gap
                    ]
                    if not eligible:
                        continue
                    for i in range(len(src.pending) - 1, -1, -1):
                        job = src.pending[i]
                        if job.job_id in moved_ids:
                            continue
                        dsts = [
                            s
                            for s in eligible
                            if job.num_qubits <= width[s.shard_id]
                        ]
                        if not dsts:
                            continue
                        dst = min(
                            dsts, key=lambda s: (len(s.pending), s.shard_id)
                        )
                        moved_ids.add(job.job_id)
                        moves.append(policy._move(src, i, dst))
                        received[dst] = received.get(dst, 0) + 1
                        moved = True
                        break
                    if moved:
                        break
                if not moved:
                    break
            for dst, count in received.items():
                tail = dst.pending[-count:]
                tail.sort(key=lambda j: (j.arrival_time, j.job_id))
                dst.pending[-count:] = tail
            return moves

        def scenario_queues(seed, sizes, widths):
            rng = np.random.default_rng(seed)
            queues = []
            t = 0.0
            for size in sizes:
                queue = []
                for _ in range(size):
                    job = make_job(int(rng.choice(widths)))
                    t += 1.0
                    job.arrival_time = t
                    queue.append(job)
                queues.append(queue)
            return queues

        # The skew-stress shape (8-16q stream piled on the 16q shard
        # while 27q and 7q shards idle), then fuzzed variants.
        cases = [
            (["guadalupe"], ["auckland"], ["lagos"], [0, 60, 0], (8, 16)),
        ]
        rng = np.random.default_rng(9)
        for _ in range(12):
            sizes = [int(n) for n in rng.integers(0, 40, size=3)]
            cases.append(
                (["guadalupe"], ["auckland"], ["lagos"], sizes, (2, 27))
            )
        for g1, g2, g3, sizes, width_range in cases:
            for min_gap in (2, 4, 8):
                queues = scenario_queues(
                    7, sizes, list(range(width_range[0], width_range[1] + 1))
                )
                ref_shards = self._batched_shards([g1, g2, g3])
                new_shards = self._batched_shards([g1, g2, g3])
                for shard, queue in zip(ref_shards, queues):
                    shard.pending = list(queue)
                for shard, queue in zip(new_shards, queues):
                    shard.pending = list(queue)
                policy = ThresholdRebalancePolicy(min_gap=min_gap)
                ref_moves = reference_rebalance(policy, ref_shards)
                new_moves = policy.rebalance(new_shards, 0.0)
                assert [
                    (m.job.job_id, m.src.shard_id, m.dst.shard_id)
                    for m in new_moves
                ] == [
                    (m.job.job_id, m.src.shard_id, m.dst.shard_id)
                    for m in ref_moves
                ]
                for ref, new in zip(ref_shards, new_shards):
                    assert [j.job_id for j in ref.pending] == [
                        j.job_id for j in new.pending
                    ]

    def test_single_shard_noop(self):
        shards = self._batched_shards([["auckland"]])
        shards[0].pending = [make_job(5) for _ in range(10)]
        assert ThresholdRebalancePolicy().rebalance(shards, 0.0) == []
        assert len(shards[0].pending) == 10


class TestRebalancingRuns:
    """Simulator-level work stealing: determinism, identity, effect."""

    NAMES = ("auckland", "hanoi", "guadalupe", "lagos")  # 27/27/16/7

    def _skewed_shards(self):
        """Shard 0 = {guadalupe 16q, lagos 7q}, shard 1 = {auckland,
        hanoi, both 27q}: an 8-16q stream qubit-fits entirely onto shard
        0 while the wide shard idles — the work-stealing stress shape."""
        by_name = {q.name: q for q in default_fleet(seed=7, names=self.NAMES)}
        policy = BatchedFCFSPolicy(fake_estimate)
        groups = [["guadalupe", "lagos"], ["auckland", "hanoi"]]
        return [
            FleetShard(
                i,
                [SimulatedQPU(by_name[n]) for n in names],
                policy.spawn(i),
                SchedulingTrigger(queue_limit=10_000, interval_seconds=120),
            )
            for i, names in enumerate(groups)
        ]

    def _run(self, *, rebalance=None, availability=None, duration=1200.0):
        gen = LoadGenerator(
            mean_rate_per_hour=900,
            mean_qubits=12,
            std_qubits=2,
            min_qubits=8,
            max_qubits=16,
            seed=4,
        )
        sim = CloudSimulator(
            execution_model=ExecutionModel(seed=5),
            config=SimulationConfig(duration_seconds=duration, seed=5),
            shards=self._skewed_shards(),
            balancer="qubit_fit",
            rebalance=rebalance,
            availability=availability,
        )
        return sim.run(gen.generate(duration))

    def test_rebalanced_runs_deterministic(self):
        a = self._run(rebalance=ThresholdRebalancePolicy())
        b = self._run(rebalance=ThresholdRebalancePolicy())
        assert_series_identical(a, b)
        assert a.jobs_migrated == b.jobs_migrated
        assert a.per_shard_steals == b.per_shard_steals

    def test_disabled_rebalancing_identical_to_none(self):
        """A rebalancer that never fires (interval past the horizon) is
        bit-identical to rebalance=None — the off switch adds nothing."""
        a = self._run(rebalance=None)
        b = self._run(
            rebalance=ThresholdRebalancePolicy(interval_seconds=1e9)
        )
        assert_series_identical(a, b)
        assert b.rebalance_cycles == 0 and b.jobs_migrated == 0

    def test_one_shard_run_ignores_rebalancer(self):
        """Single-shard fleets never rebalance, whatever is configured."""
        gen = LoadGenerator(mean_rate_per_hour=600, max_qubits=27, seed=4)

        def run(rebalance):
            sim = CloudSimulator.sharded(
                fleet_of_size(2, seed=7),
                BatchedFCFSPolicy(fake_estimate),
                num_shards=1,
                execution_model=ExecutionModel(seed=5),
                config=SimulationConfig(duration_seconds=900.0, seed=5),
                rebalance=rebalance,
            )
            return sim.run(gen.generate(900.0))

        a = run(None)
        b = run(ThresholdRebalancePolicy(interval_seconds=30.0))
        assert_series_identical(a, b)
        assert b.rebalance_cycles == 0

    def test_work_stealing_spreads_skewed_load(self):
        """Qubit-fit routing under a 8-16q stream starves the wide shard;
        stealing puts it to work and cuts the busy-seconds imbalance."""
        static = self._run()
        steal = self._run(
            rebalance=ThresholdRebalancePolicy(
                min_gap=2, interval_seconds=30.0
            )
        )
        assert steal.jobs_migrated > 0
        assert steal.rebalance_cycles > 0
        total_in = sum(v["in"] for v in steal.per_shard_steals.values())
        total_out = sum(v["out"] for v in steal.per_shard_steals.values())
        assert total_in == total_out == steal.jobs_migrated
        assert (
            steal.dispatched_jobs + steal.unschedulable_jobs
            == static.dispatched_jobs + static.unschedulable_jobs
        )
        assert (
            steal.summary()["load_cv"] < static.summary()["load_cv"]
        )

    def test_outage_recovery_event_ordering_with_stealing(self):
        """A flash outage on the mid shard's QPU mid-run: counters fold
        in order and stolen jobs land on still-online devices."""
        from repro.cloud import flash_outage

        availability = flash_outage(
            ["guadalupe"], start=300.0, duration_seconds=400.0
        )
        m = self._run(
            rebalance=ThresholdRebalancePolicy(
                min_gap=2, interval_seconds=30.0
            ),
            availability=availability,
        )
        assert m.outage_events == 1 and m.recovery_events == 1
        assert m.qpu_downtime_seconds["guadalupe"] == pytest.approx(400.0)
        assert m.jobs_migrated > 0
        # Work kept flowing to the wide shard while guadalupe was dark.
        assert m.per_qpu_jobs["auckland"] + m.per_qpu_jobs["hanoi"] > 0

    def test_threshold_migrates_into_a_per_arrival_fcfs_shard(self):
        """Two per-arrival FCFS shards, each one 27q device; both are
        dark at first, so 10q arrivals are retained where they land.
        hanoi (shard 1) recovers at 100 s and drains its queue on the
        next arrival; auckland stays dark until 600 s.  The 120 s and
        240 s rebalances each move shard 0's newest job to shard 1, whose
        one-job trigger fires on receipt and dispatches it on hanoi at
        once.  The last job is retried at the horizon flush: shard 0
        runs no cycle between auckland's recovery and the horizon."""
        from repro.cloud import AvailabilityModel, HybridApplication, MaintenanceWindow

        apps = []
        for t in (10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 110.0):
            apps.append(HybridApplication(quantum_job=make_job(10), arrival_time=t))
        sim = CloudSimulator.sharded(
            default_fleet(seed=7, names=["auckland", "hanoi"]),
            FCFSPolicy(fake_estimate),
            num_shards=2,
            execution_model=ExecutionModel(seed=5),
            config=SimulationConfig(duration_seconds=900.0, seed=5),
            rebalance=ThresholdRebalancePolicy(min_gap=2, interval_seconds=120.0),
            availability=AvailabilityModel(windows=[
                MaintenanceWindow("auckland", 0.0, 600.0),
                MaintenanceWindow("hanoi", 0.0, 100.0),
            ]),
        )
        assert [s.trigger.queue_limit for s in sim.shards] == [1, 1]
        m = sim.run(apps)
        assert (m.unschedulable_jobs, m.pending_at_horizon) == (0, 0)
        assert m.dispatched_jobs == len(apps)
        assert m.jobs_migrated == m.per_shard_steals[1]["in"] == 2
        assert [(a.quantum_job.schedule_time, a.quantum_job.assigned_qpu) for a in apps] == [
            (900.0, "auckland"), (110.0, "hanoi"), (240.0, "hanoi"), (110.0, "hanoi"),
            (120.0, "hanoi"), (110.0, "hanoi"), (110.0, "hanoi"),
        ]


class TestStreaming:
    def test_iter_arrivals_matches_generate(self):
        gen_a = LoadGenerator(mean_rate_per_hour=900, seed=11)
        gen_b = LoadGenerator(mean_rate_per_hour=900, seed=11)
        eager = gen_a.generate(1200.0)
        lazy = list(gen_b.iter_arrivals(1200.0))
        assert len(eager) == len(lazy)
        for x, y in zip(eager, lazy):
            assert x.arrival_time == y.arrival_time
            assert x.quantum_job.metrics.fingerprint == (
                y.quantum_job.metrics.fingerprint
            )
            assert x.quantum_job.shots == y.quantum_job.shots
            assert x.quantum_job.mitigation == y.quantum_job.mitigation

    def test_run_from_iterator_matches_list(self):
        def run(stream: bool):
            gen = LoadGenerator(mean_rate_per_hour=600, seed=4)
            fleet = default_fleet(seed=7, names=["auckland", "lagos"])
            sim = CloudSimulator(
                fleet,
                FCFSPolicy(fake_estimate),
                ExecutionModel(seed=5),
                config=SimulationConfig(duration_seconds=900.0, seed=5),
            )
            apps = gen.iter_arrivals(900.0) if stream else gen.generate(900.0)
            return sim.run(apps)

        a, b = run(False), run(True)
        for attr in SERIES:
            at, av = getattr(a, attr).as_arrays()
            bt, bv = getattr(b, attr).as_arrays()
            assert np.array_equal(at, bt) and np.array_equal(av, bv)
        assert a.completed_jobs == b.completed_jobs
        assert a.per_qpu_busy_seconds == b.per_qpu_busy_seconds

    def test_streaming_keeps_inflight_bounded(self):
        gen = LoadGenerator(mean_rate_per_hour=2000, seed=4)
        fleet = default_fleet(seed=7, names=["auckland", "algiers"])
        sim = CloudSimulator(
            fleet,
            FCFSPolicy(fake_estimate),
            ExecutionModel(seed=5),
            config=SimulationConfig(duration_seconds=1800.0, seed=5),
        )
        m = sim.run(gen.iter_arrivals(1800.0))
        # FCFS dispatches on arrival: at most the one arriving app is in
        # flight, regardless of how many the stream carries.
        assert m.dispatched_jobs + m.unschedulable_jobs > 100
        assert m.peak_inflight_apps == 1

    def test_circuit_pool_bounds_distinct_shapes(self):
        gen = LoadGenerator(
            mean_rate_per_hour=2000,
            seed=4,
            circuit_pool_size=16,
            shots_grid=(1024, 4096),
        )
        apps = gen.generate(1800.0)
        shapes = {
            (a.quantum_job.metrics.fingerprint, a.quantum_job.shots)
            for a in apps
        }
        assert len(apps) > 100
        assert len(shapes) <= 16
        # Fresh job identities despite shared structure.
        ids = {a.quantum_job.job_id for a in apps}
        assert len(ids) == len(apps)
