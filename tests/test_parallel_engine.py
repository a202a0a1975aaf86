"""Scheduling-engine tests: batches, coalescing and the stage's purity.

The load-bearing guarantee: a seeded run produces **bit-identical**
``SimulationMetrics`` (modulo wall-clock timing fields) whether or not
every optimization task and result goes through a pickle round trip
(:class:`helpers.determinism.PicklingSerialExecutor`) — for both the
Qonductor scheduler (whose cycles carry an optimization task) and the
batched FCFS baseline (whose plans carry none).  Plus: the executor
seam, same-instant trigger coalescing, a failing stage, and the purity of
the cycle seed derivation.
"""

import pickle

import numpy as np
import pytest

from helpers.determinism import (
    TRIGGER_SHAPES,
    PicklingSerialExecutor,
    assert_runs_identical,
    fake_estimate,
    run_sharded,
)
from repro.backends.fleet import fleet_of_size
from repro.cloud import (
    CloudSimulator,
    ExecutionModel,
    LoadGenerator,
    SerialCycleExecutor,
    SimulationConfig,
    SimulationMetrics,
    ThresholdRebalancePolicy,
    TimeSeries,
)
from repro.moo import NSGA2
from repro.scheduler import (
    BatchedFCFSPolicy,
    QonductorScheduler,
    SchedulingTrigger,
    cycle_seed,
    run_optimization,
)


class TestCycleExecutor:
    @staticmethod
    def _sim(executor):
        return CloudSimulator(
            fleet_of_size(2, seed=7),
            BatchedFCFSPolicy(fake_estimate),
            ExecutionModel(seed=5),
            config=SimulationConfig(duration_seconds=60.0, seed=5),
            cycle_executor=executor,
        )

    def test_results_come_back_in_task_order(self):
        ex = SerialCycleExecutor()
        assert ex.run(lambda x: x * x, list(range(17))) == [
            i * i for i in range(17)
        ]
        assert ex.run(str, []) == []

    def test_simulator_takes_serial_none_or_an_instance(self):
        assert type(self._sim(None).cycle_executor) is SerialCycleExecutor
        assert type(self._sim("serial").cycle_executor) is SerialCycleExecutor
        ex = PicklingSerialExecutor()
        assert self._sim(ex).cycle_executor is ex

    @pytest.mark.parametrize("spec", ["thread", "process:2", "bogus", 4])
    def test_any_other_backend_is_refused(self, spec):
        with pytest.raises(ValueError, match="serial backend is the only one"):
            self._sim(spec)


class TestCycleSeedPurity:
    def test_cycle_seed_depends_on_all_components(self):
        base = cycle_seed(3, 1, 2).generate_state(4).tolist()
        assert cycle_seed(3, 1, 2).generate_state(4).tolist() == base
        assert cycle_seed(4, 1, 2).generate_state(4).tolist() != base
        assert cycle_seed(3, 2, 2).generate_state(4).tolist() != base
        assert cycle_seed(3, 1, 3).generate_state(4).tolist() != base

    def test_run_optimization_is_pure(self):
        sched = QonductorScheduler(fake_estimate, seed=1, max_generations=6)
        fleet = fleet_of_size(3, seed=7)
        from repro.cloud import QuantumJob
        from repro.workloads import ghz_linear

        jobs = [
            QuantumJob.from_circuit(ghz_linear(5))
            for _ in range(8)
        ]
        plan = sched.begin_cycle(jobs, fleet, {})
        a = run_optimization(plan.task)
        b = run_optimization(plan.task)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.F, b.F)
        assert a.generations == b.generations

    def test_fused_schedule_matches_split_stages(self):
        """schedule() and begin/run/finish must be the same computation."""
        fleet = fleet_of_size(3, seed=7)
        from repro.cloud import QuantumJob
        from repro.workloads import ghz_linear

        jobs = [
            QuantumJob.from_circuit(ghz_linear(4))
            for _ in range(6)
        ]
        fused = QonductorScheduler(
            fake_estimate, seed=2, max_generations=6
        ).schedule(list(jobs), fleet, {})
        split_sched = QonductorScheduler(
            fake_estimate, seed=2, max_generations=6
        )
        plan = split_sched.begin_cycle(list(jobs), fleet, {})
        split = split_sched.finish_cycle(plan, run_optimization(plan.task))
        assert [d.qpu_name for d in fused.decisions] == [
            d.qpu_name for d in split.decisions
        ]
        assert np.array_equal(fused.front_F, split.front_F)
        assert fused.chosen_index == split.chosen_index


class TestBackendBitIdentity:
    """Same seeds -> identical SimulationMetrics whether or not every task
    and result goes through a pickle round trip."""

    def test_qonductor_multi_shard(self):
        serial = run_sharded(
            QonductorScheduler(fake_estimate, seed=5, max_generations=4),
            "serial",
        )
        pickled = run_sharded(
            QonductorScheduler(fake_estimate, seed=5, max_generations=4),
            PicklingSerialExecutor(),
        )
        assert_runs_identical(serial, pickled)
        # Same-instant deadlines really did coalesce into multi-cycle
        # batches — the batched path was exercised, not bypassed.
        assert serial.max_batch_cycles >= 2
        assert serial.scheduling_cycles >= 4

    def test_round_trip_refuses_what_cannot_pickle(self):
        """The double has teeth: a stage not importable by name, or a
        task holding a closure, fails instead of running."""
        ex = PicklingSerialExecutor()
        assert ex.run(str, [1, 2]) == ["1", "2"]
        # A local object fails the by-name lookup (AttributeError before
        # Python 3.12, PicklingError after).
        unpicklable = (pickle.PicklingError, AttributeError)
        with pytest.raises(unpicklable):
            ex.run(lambda x: x, [1])
        with pytest.raises(unpicklable):
            ex.run(str, [lambda: None])

    def test_fcfs_multi_shard_with_rebalancing(self):
        serial = run_sharded(
            BatchedFCFSPolicy(fake_estimate),
            "serial",
            rebalance=ThresholdRebalancePolicy(),
        )
        pickled = run_sharded(
            BatchedFCFSPolicy(fake_estimate),
            PicklingSerialExecutor(),
            rebalance=ThresholdRebalancePolicy(),
        )
        assert_runs_identical(serial, pickled)
        assert serial.dispatched_jobs > 0

    def test_qonductor_with_recalibration(self):
        """Cache invalidation mid-run keeps the round trip aligned too."""
        serial = run_sharded(
            QonductorScheduler(fake_estimate, seed=5, max_generations=4),
            "serial",
            num_shards=2,
            duration=500.0,
            recal=250.0,
        )
        pickled = run_sharded(
            QonductorScheduler(fake_estimate, seed=5, max_generations=4),
            PicklingSerialExecutor(),
            num_shards=2,
            duration=500.0,
            recal=250.0,
        )
        assert_runs_identical(serial, pickled)

    def test_seeded_rerun_identical_on_same_backend(self):
        a = run_sharded(
            QonductorScheduler(fake_estimate, seed=5, max_generations=4),
            "serial",
            num_shards=2,
            duration=500.0,
        )
        b = run_sharded(
            QonductorScheduler(fake_estimate, seed=5, max_generations=4),
            "serial",
            num_shards=2,
            duration=500.0,
        )
        assert_runs_identical(a, b)

    def test_run_independent_of_job_id_offset(self):
        """Job/app ids come from process-global counters, so a run's ids
        depend on what ran before it in the process; its results may
        not.  Same seeded run, 10,007 ids apart."""
        from repro.cloud import job as job_module

        def run():
            first_id = next(job_module._job_ids)
            metrics = run_sharded(
                QonductorScheduler(fake_estimate, seed=5, max_generations=4),
                "serial",
                num_shards=2,
                duration=500.0,
            )
            return first_id, metrics

        first_a, a = run()
        for counter in (job_module._job_ids, job_module._app_ids):
            for _ in range(10_007):
                next(counter)
        first_b, b = run()
        assert first_b - first_a > 10_007
        assert_runs_identical(a, b)


class TestDeterministicStateContract:
    """``deterministic_state`` is exclude-by-allowlist, not
    include-by-list: new metrics fields are compared by default, and the
    allowlist itself is validated so it can never silently rot."""

    def test_every_field_but_timing_is_compared(self):
        m = SimulationMetrics()
        state = m.deterministic_state()
        assert set(state) == set(vars(m)) - set(m.TIMING_FIELDS)
        assert "wall_seconds" not in state
        assert "stage_seconds" not in state

    def test_new_fields_are_included_automatically(self):
        """A field added by a future PR lands in the comparison without
        anyone remembering to register it."""
        m = SimulationMetrics()
        m.brand_new_counter = 7
        assert m.deterministic_state()["brand_new_counter"] == 7

    def test_stale_allowlist_entry_fails_loudly(self, monkeypatch):
        """Renaming/removing a timing field without updating the
        allowlist must raise, not silently exclude nothing."""
        monkeypatch.setattr(
            SimulationMetrics,
            "TIMING_FIELDS",
            ("wall_seconds", "stage_seconds", "renamed_away"),
        )
        with pytest.raises(AttributeError, match="renamed_away"):
            SimulationMetrics().deterministic_state()

    def test_timeseries_fields_compare_by_value(self):
        a, b = SimulationMetrics(), SimulationMetrics()
        a.mean_fidelity.add(1.0, 0.9)
        b.mean_fidelity.add(1.0, 0.9)
        a.shard_queue_size[0] = TimeSeries([1.0], [3.0])
        b.shard_queue_size[0] = TimeSeries([1.0], [3.0])
        assert a.deterministic_state() == b.deterministic_state()
        b.mean_fidelity.add(2.0, 0.8)
        assert a.deterministic_state() != b.deterministic_state()

    def test_timing_fields_do_not_affect_equality(self):
        a, b = SimulationMetrics(), SimulationMetrics()
        a.wall_seconds = 1.23
        b.wall_seconds = 9.87
        b.stage_seconds["optimize"] = 5.0
        assert a.deterministic_state() == b.deterministic_state()

    def test_static_detlint_view_agrees_with_runtime(self):
        """detlint's DET005 parses the same contract from the source
        text that the runtime enforces: same field set, same
        ``TIMING_FIELDS`` allowlist, in the same order.  If the two ever
        drift (a field added behind an ``if``, the tuple built
        dynamically), the static mirror silently rots — this pins it."""
        import ast
        from dataclasses import fields as dataclass_fields
        from pathlib import Path

        from repro.analysis.rules.det005_metrics import parse_metrics_contract
        from repro.cloud import metrics

        tree = ast.parse(Path(metrics.__file__).read_text())
        static_fields, static_timing, _ = parse_metrics_contract(tree)
        assert static_timing == tuple(SimulationMetrics.TIMING_FIELDS)
        assert list(static_fields) == [
            f.name for f in dataclass_fields(SimulationMetrics)
        ]


class TestCoalescing:
    def test_aligned_deadlines_batch_misaligned_do_not(self):
        """Deadline-driven shards with one shared cadence coalesce; a
        queue-limit-driven fleet (triggers firing on arrivals at distinct
        times) runs batches of one."""
        aligned = run_sharded(
            QonductorScheduler(fake_estimate, seed=5, max_generations=4),
            "serial",
            duration=500.0,
        )
        assert aligned.max_batch_cycles >= 2
        assert aligned.cycle_batches < aligned.scheduling_cycles

        gen = LoadGenerator(
            mean_rate_per_hour=2400, max_qubits=27, diurnal=False, seed=4
        )
        sim = CloudSimulator.sharded(
            fleet_of_size(6, seed=7),
            QonductorScheduler(fake_estimate, seed=5, max_generations=4),
            num_shards=3,
            execution_model=ExecutionModel(seed=5),
            trigger_factory=lambda i: SchedulingTrigger(
                queue_limit=5, interval_seconds=10_000
            ),
            config=SimulationConfig(duration_seconds=500.0, seed=5),
        )
        m = sim.run(gen.generate(500.0))
        assert m.scheduling_cycles > 0
        # Arrival-path fires batch alone; only the horizon flush (one
        # batch over every backlogged shard) can coalesce here.
        assert m.scheduling_cycles - m.cycle_batches <= 3 - 1

    def test_stage_seconds_accumulated(self):
        m = run_sharded(
            QonductorScheduler(fake_estimate, seed=5, max_generations=4),
            "serial",
            duration=500.0,
        )
        assert set(m.stage_seconds) == {"preprocess", "optimize", "select"}
        assert m.stage_seconds["optimize"] > 0.0

    def test_queue_limit_stream_runs_batches_of_one_and_conserves_jobs(self):
        """Per-shard queue-limit triggers fire on arrivals at distinct
        instants, each as its own synchronous batch (bar the horizon
        flush, one batch over every backlogged shard), and every arrival
        lands in exactly one bucket."""
        m = run_sharded(
            QonductorScheduler(fake_estimate, seed=5, max_generations=4),
            "serial",
            **TRIGGER_SHAPES["queue"],
        )
        assert m.cycle_batches > m.num_shards
        assert m.scheduling_cycles - m.cycle_batches <= m.num_shards - 1
        placed = m.dispatched_jobs + m.unschedulable_jobs + m.pending_at_horizon
        assert placed == sum(m.per_shard_jobs.values()) > 0


class TestStageFailure:
    def test_failure_names_shard_cycle_and_seed(self, monkeypatch):
        """An exception inside NSGA-II reaches the caller as a
        ``RuntimeError`` naming the cycle, chained to the original."""

        def minimize(self, problem, termination):
            raise FloatingPointError("overflow in crowding distance")

        monkeypatch.setattr(NSGA2, "minimize", minimize)
        with pytest.raises(
            RuntimeError,
            match=r"^optimization stage failed: shard 0, cycle 1, base seed 5$",
        ) as failure:
            run_sharded(
                QonductorScheduler(fake_estimate, seed=5, max_generations=4),
                "serial",
                num_shards=2,
                duration=500.0,
            )
        assert isinstance(failure.value.__cause__, FloatingPointError)


class TestSimulatorLifecycle:
    def _sim(self):
        return CloudSimulator(
            fleet_of_size(2, seed=7),
            BatchedFCFSPolicy(fake_estimate),
            ExecutionModel(seed=5),
            config=SimulationConfig(duration_seconds=120.0, seed=5),
        )

    def _apps(self):
        gen = LoadGenerator(
            mean_rate_per_hour=600, max_qubits=27, diurnal=False, seed=4
        )
        return gen.generate(120.0)

    def test_run_is_single_shot(self):
        """Fleet, trigger, and policy state persist across a run, so a
        second ``run()`` would report different metrics: it raises."""
        sim = self._sim()
        sim.run(self._apps())
        with pytest.raises(RuntimeError, match="single-shot"):
            sim.run(self._apps())
