"""Dynamic-availability tests: the availability model's deterministic
event schedule (windows, merged intervals, ordering) and
the simulator integration — flipping ``QPU.online`` mid-run must redirect
routing (online-aware ``FleetShard.fits``), feed the outage/downtime
counters, and leave in-flight work untouched."""

import pytest

from repro.backends import default_fleet
from repro.cloud import (
    AvailabilityModel,
    CloudSimulator,
    ExecutionModel,
    FleetShard,
    LoadGenerator,
    MaintenanceWindow,
    QuantumJob,
    QubitFitBalancer,
    RoundRobinBalancer,
    SimulatedQPU,
    SimulationConfig,
    flash_outage,
)
from repro.estimator import PairwiseEstimateSource
from repro.scheduler import FCFSPolicy
from repro.workloads import ghz_linear


@PairwiseEstimateSource
def _fake_estimate(job, qpu):
    return 0.5 + 0.4 / (1 + job.num_qubits + len(qpu.name)), 12.0


def _job(width: int) -> QuantumJob:
    return QuantumJob.from_circuit(ghz_linear(width))


class TestAvailabilityModel:
    def test_maintenance_window_events(self):
        model = AvailabilityModel(
            windows=[MaintenanceWindow("a", 100.0, 200.0)]
        )
        events = model.schedule(["a", "b"], 1000.0)
        assert [(e.time, e.qpu_name, e.online) for e in events] == [
            (100.0, "a", False),
            (200.0, "a", True),
        ]

    def test_window_past_horizon_truncated(self):
        model = AvailabilityModel(
            windows=[
                MaintenanceWindow("a", 100.0, 900.0),  # recovery cut off
                MaintenanceWindow("b", 600.0, 700.0),  # entirely outside
            ]
        )
        events = model.schedule(["a", "b"], 500.0)
        assert [(e.qpu_name, e.online) for e in events] == [("a", False)]

    def test_overlapping_windows_merge(self):
        """Overlaps collapse to one offline interval — no mid-flap."""
        model = AvailabilityModel(
            windows=[
                MaintenanceWindow("a", 100.0, 300.0),
                MaintenanceWindow("a", 200.0, 400.0),
            ]
        )
        events = model.schedule(["a"], 1000.0)
        assert [(e.time, e.online) for e in events] == [
            (100.0, False),
            (400.0, True),
        ]

    def test_flash_outage_helper(self):
        model = flash_outage(["a", "b"], start=50.0, duration_seconds=25.0)
        events = model.schedule(["a", "b"], 1000.0)
        assert [(e.time, e.qpu_name, e.online) for e in events] == [
            (50.0, "a", False),
            (50.0, "b", False),
            (75.0, "a", True),
            (75.0, "b", True),
        ]

    def test_validation(self):
        nan, inf = float("nan"), float("inf")
        with pytest.raises(ValueError, match="'a'.*end.*10.0"):
            MaintenanceWindow("a", 10.0, 10.0)
        # Regression: ``end <= start`` is False for NaN, so a NaN start
        # dropped the window silently and a NaN end never recovered the
        # device; both must name the QPU, the field and the value.
        with pytest.raises(ValueError, match="'qpu00'.*start.*nan"):
            MaintenanceWindow("qpu00", nan, 10.0)
        with pytest.raises(ValueError, match="'qpu00'.*end.*nan"):
            MaintenanceWindow("qpu00", 0.0, nan)
        with pytest.raises(ValueError, match="'qpu00'.*start.*inf"):
            MaintenanceWindow("qpu00", -inf, 10.0)
        with pytest.raises(ValueError, match="'qpu00'.*end.*nan"):
            flash_outage(["qpu00"], start=5.0, duration_seconds=nan)
        with pytest.raises(ValueError, match="'qpu00'.*start.*nan"):
            flash_outage(["qpu00"], start=nan, duration_seconds=10.0)
        # An infinite end is legal: down through the end of the run.
        events = AvailabilityModel(
            windows=[MaintenanceWindow("qpu00", 5.0, inf)]
        ).schedule(["qpu00"], 100.0)
        assert [(e.time, e.online) for e in events] == [(5.0, False)]

    def test_unknown_window_qpu_raises(self):
        """A typo'd device name must fail loudly, not silently produce
        an always-online run."""
        model = flash_outage(["mid0"], start=1.0, duration_seconds=1.0)
        with pytest.raises(ValueError, match="mid0"):
            model.schedule(["mid00", "mid01"], 100.0)


class TestOnlineAwareRouting:
    def _shards(self):
        shards = []
        for i, names in enumerate([["auckland"], ["lagos"]]):  # 27q / 7q
            backends = [
                SimulatedQPU(q)
                for q in default_fleet(seed=7, names=list(names))
            ]
            shards.append(FleetShard(i, backends, FCFSPolicy(_fake_estimate)))
        return shards

    def test_offline_wide_qpu_redirects_routing(self):
        """Regression: ``fits`` must see ``QPU.online``.  A wide job's
        only wide QPU going offline means no shard fits — the balancer
        falls back instead of insisting on the dead wide shard."""
        shards = self._shards()
        wide = _job(16)
        assert shards[0].fits(wide) and shards[0].max_qubits == 27
        shards[0].set_online(shards[0].backends[0].name, False)
        assert shards[0].max_qubits == 0
        assert not shards[0].fits(wide)
        # Narrow jobs now route to the surviving narrow shard only.
        balancer = RoundRobinBalancer()
        picks = [balancer.route(_job(5), shards, 0.0).shard_id
                 for _ in range(4)]
        assert picks == [1, 1, 1, 1]
        # Tightest-fit routing skips the offline wide shard too.
        assert QubitFitBalancer().route(_job(5), shards, 0.0).shard_id == 1
        # Recovery restores the original behavior.
        shards[0].set_online(shards[0].backends[0].name, True)
        assert shards[0].fits(wide)

    def test_all_offline_falls_back_to_rejection(self):
        """With every QPU down nothing fits; the job is still routed and
        the owning scheduler rejects it, like the unsharded path."""
        shards = self._shards()
        for shard in shards:
            for b in shard.backends:
                shard.set_online(b.name, False)
        shard = RoundRobinBalancer().route(_job(5), shards, 0.0)
        assert shard is shards[0]  # deterministic fallback pick


class TestSimulatorIntegration:
    NAMES = ("auckland", "lagos")  # 27q wide + 7q narrow

    def _run(self, availability, *, duration=900.0, rate=600):
        gen = LoadGenerator(
            mean_rate_per_hour=rate, max_qubits=27, seed=4
        )
        fleet = default_fleet(seed=7, names=self.NAMES)
        sim = CloudSimulator(
            fleet,
            FCFSPolicy(_fake_estimate),
            ExecutionModel(seed=5),
            config=SimulationConfig(duration_seconds=duration, seed=5),
            availability=availability,
        )
        return fleet, sim.run(gen.generate(duration))

    def test_outage_counters_and_downtime(self):
        fleet, m = self._run(
            flash_outage(["auckland"], start=300.0, duration_seconds=200.0)
        )
        assert m.outage_events == 1
        assert m.recovery_events == 1
        assert m.qpu_downtime_seconds["auckland"] == pytest.approx(200.0)
        assert fleet[0].online  # recovered by the end of the run

    def test_still_down_at_horizon_accrues_downtime(self):
        fleet, m = self._run(
            flash_outage(["auckland"], start=600.0, duration_seconds=10_000.0)
        )
        assert m.outage_events == 1
        assert m.recovery_events == 0
        assert m.qpu_downtime_seconds["auckland"] == pytest.approx(300.0)
        assert not fleet[0].online

    def test_wide_jobs_wait_out_a_wide_outage(self):
        """While the only wide QPU is down, per-arrival FCFS retains wide
        jobs (the device may recover) instead of failing them; narrow
        jobs keep running on the narrow device, and the wide ones are
        still pending when the outage outlives the run."""
        _, baseline = self._run(None)
        _, outage = self._run(
            flash_outage(["auckland"], start=0.0, duration_seconds=10_000.0)
        )
        assert baseline.unschedulable_jobs == 0
        assert outage.unschedulable_jobs == 0
        assert outage.pending_at_horizon > 0
        assert outage.dispatched_jobs > 0  # narrow jobs still served
        assert outage.per_qpu_jobs["auckland"] == 0
        assert (
            outage.dispatched_jobs + outage.pending_at_horizon
            == baseline.dispatched_jobs
        )

    @pytest.mark.parametrize("later_arrival", [True, False], ids=["arrival", "flush"])
    def test_per_arrival_retry_points(self, later_arrival):
        """A job retained on a per-arrival shard is retried at the
        shard's next cycle: its next arrival, or else the horizon flush."""
        from repro.cloud import HybridApplication

        def app(width, t):
            return HybridApplication(quantum_job=_job(width), arrival_time=t)

        wide = app(10, 10.0)
        apps = [wide, app(3, 50.0)] if later_arrival else [wide]
        sim = CloudSimulator(
            default_fleet(seed=7, names=self.NAMES),
            FCFSPolicy(_fake_estimate),
            ExecutionModel(seed=5),
            config=SimulationConfig(duration_seconds=100.0, seed=5),
            availability=flash_outage(["auckland"], start=0.0, duration_seconds=30.0),
        )
        m = sim.run(apps)
        assert (m.unschedulable_jobs, m.pending_at_horizon) == (0, 0)
        assert m.dispatched_jobs == len(apps)
        assert wide.quantum_job.assigned_qpu == "auckland"
        assert wide.quantum_job.schedule_time == (50.0 if later_arrival else 100.0)

    def test_pending_jobs_survive_transient_full_outage(self):
        """Jobs queued on a batched shard whose only device is down at
        trigger time must wait for recovery, not be failed: the outage
        is transient, and only permanently-too-wide jobs fail."""
        from repro.scheduler import BatchedFCFSPolicy, SchedulingTrigger
        from repro.workloads import ghz_linear as _ghz
        from repro.cloud import HybridApplication

        fleet = default_fleet(seed=7, names=["auckland"])
        apps = [
            HybridApplication(
                quantum_job=QuantumJob.from_circuit(_ghz(6)),
                arrival_time=10.0 * (i + 1),
            )
            for i in range(5)
        ]
        too_wide = HybridApplication(
            quantum_job=QuantumJob.from_circuit(_ghz(40)),
            arrival_time=15.0,
        )
        sim = CloudSimulator(
            fleet,
            BatchedFCFSPolicy(_fake_estimate),
            ExecutionModel(seed=5),
            trigger=SchedulingTrigger(queue_limit=100, interval_seconds=60),
            config=SimulationConfig(duration_seconds=900.0, seed=5),
            availability=flash_outage(
                ["auckland"], start=0.0, duration_seconds=400.0
            ),
        )
        m = sim.run(apps + [too_wide])
        # Triggers fired during the outage (t=60..360) held the queue;
        # after recovery everything feasible dispatched on the device.
        assert m.unschedulable_jobs == 1  # the 40q job only
        assert m.dispatched_jobs == len(apps)
        assert m.per_qpu_jobs["auckland"] == len(apps)
        assert all(
            a.quantum_job.start_time >= 400.0 for a in apps
        )

    def test_unrecovered_outage_reports_pending_at_horizon(self):
        """Jobs held through an outage that outlives the run must show
        up in ``pending_at_horizon`` — every arrival lands in exactly
        one of dispatched / unschedulable / pending."""
        from repro.cloud import HybridApplication
        from repro.scheduler import BatchedFCFSPolicy, SchedulingTrigger
        from repro.workloads import ghz_linear as _ghz

        fleet = default_fleet(seed=7, names=["auckland"])
        apps = [
            HybridApplication(
                quantum_job=QuantumJob.from_circuit(_ghz(6)),
                arrival_time=10.0 * (i + 1),
            )
            for i in range(5)
        ]
        sim = CloudSimulator(
            fleet,
            BatchedFCFSPolicy(_fake_estimate),
            ExecutionModel(seed=5),
            trigger=SchedulingTrigger(queue_limit=100, interval_seconds=60),
            config=SimulationConfig(duration_seconds=900.0, seed=5),
            availability=flash_outage(
                ["auckland"], start=0.0, duration_seconds=1e9
            ),
        )
        m = sim.run(apps)
        assert m.dispatched_jobs == 0
        assert m.unschedulable_jobs == 0
        assert m.pending_at_horizon == len(apps)
        assert m.summary()["pending_at_horizon"] == len(apps)

    def test_routing_prefers_capable_offline_shard(self):
        """When nothing fits *right now*, the balancer must prefer a
        shard whose (offline) hardware could recover and serve the job
        over a shard that could never run it — otherwise the job is
        permanently failed on too-narrow hardware."""
        from repro.scheduler import BatchedFCFSPolicy

        by_name = {
            q.name: q
            for q in default_fleet(
                seed=7, names=["auckland", "lagos", "guadalupe"]
            )
        }
        policy = BatchedFCFSPolicy(_fake_estimate)
        shards = [
            FleetShard(
                0,
                [SimulatedQPU(by_name["auckland"]),
                 SimulatedQPU(by_name["lagos"])],
                policy.spawn(0),
            ),
            FleetShard(1, [SimulatedQPU(by_name["guadalupe"])],
                       policy.spawn(1)),
        ]
        by_name["auckland"].online = False  # the only 27q device
        by_name["guadalupe"].online = False
        wide = _job(20)  # fits auckland's hardware only
        assert not any(s.fits(wide) for s in shards)
        for balancer in (RoundRobinBalancer(), QubitFitBalancer()):
            assert balancer.route(wide, shards, 0.0) is shards[0]

    def test_no_availability_model_is_noop(self):
        """availability=None adds no events: identical to the PR 3 run."""
        _, a = self._run(None)
        gen = LoadGenerator(mean_rate_per_hour=600, max_qubits=27, seed=4)
        fleet = default_fleet(seed=7, names=self.NAMES)
        sim = CloudSimulator(
            fleet,
            FCFSPolicy(_fake_estimate),
            ExecutionModel(seed=5),
            config=SimulationConfig(duration_seconds=900.0, seed=5),
        )
        b = sim.run(gen.generate(900.0))
        assert a.events_processed == b.events_processed
        assert a.per_qpu_busy_seconds == b.per_qpu_busy_seconds
        assert a.outage_events == b.outage_events == 0
