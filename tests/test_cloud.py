"""Cloud-simulation tests: jobs, proxy, execution model, backends, load
generation, the simulator loop, and the imbalance study."""

from dataclasses import astuple
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers.reference_models import (
    components_reference,
    execute_reference,
    expected_fidelity_reference,
)
from repro.backends import default_fleet, get_model
from repro.circuits import compute_metrics
from repro.cloud import (
    CloudSimulator,
    ExecutionModel,
    HybridApplication,
    JobStatus,
    LoadGenerator,
    QuantumJob,
    SimulatedQPU,
    SimulationConfig,
    TranspileProxy,
    diurnal_rate,
    simulate_queue_imbalance,
)
from repro.cloud.availability import flash_outage
from repro.cloud.execution import NOISE_BLOCK_ROWS, speed_factor
from repro.estimator import PairwiseEstimateSource
from repro.mitigation.stack import STANDARD_STACKS
from repro.scheduler import FCFSPolicy, QonductorScheduler, SchedulingTrigger
from repro.workloads import BENCHMARKS, generate, ghz_linear, qaoa_maxcut


@PairwiseEstimateSource
def _fake_estimate(job, qpu):
    return 0.8, 12.0


class TestJob:
    def test_from_circuit(self):
        job = QuantumJob.from_circuit(ghz_linear(5), shots=2000, mitigation="rem")
        assert job.num_qubits == 5 and job.shots == 2000

    def test_lifecycle_times(self):
        job = QuantumJob.from_circuit(ghz_linear(3))
        job.arrival_time = 10.0
        assert job.completion_time is None
        job.start_time, job.finish_time = 30.0, 45.0
        assert job.start_time - job.arrival_time == pytest.approx(20.0)
        assert job.completion_time == pytest.approx(35.0)

    def test_unique_ids(self):
        a = QuantumJob.from_circuit(ghz_linear(3))
        b = QuantumJob.from_circuit(ghz_linear(3))
        assert a.job_id != b.job_id

    def test_application_wrapper(self):
        job = QuantumJob.from_circuit(ghz_linear(3), mitigation="zne")
        app = HybridApplication(quantum_job=job, arrival_time=5.0)
        assert app.uses_mitigation
        app.finish_time = 25.0
        assert app.completion_time == pytest.approx(20.0)


class TestProxy:
    def test_physical_metrics_positive(self):
        proxy = TranspileProxy()
        model = get_model("falcon_r5_27")
        m = compute_metrics(ghz_linear(8))
        p2q, p1q, dur = proxy.physical_metrics(m, model)
        assert p2q >= m.num_2q_gates and dur > 0

    def test_linear_class_cheaper_than_dense(self):
        proxy = TranspileProxy()
        model = get_model("falcon_r5_27")
        linear = compute_metrics(ghz_linear(10))
        from repro.workloads import qft

        dense = compute_metrics(qft(10, measure=True))
        # Same logical 2q count comparison via inflation ratio:
        p2q_lin, _, _ = proxy.physical_metrics(linear, model)
        p2q_dense, _, _ = proxy.physical_metrics(dense, model)
        infl_lin = p2q_lin / linear.num_2q_gates
        infl_dense = p2q_dense / dense.num_2q_gates
        assert infl_lin < infl_dense

    def test_tables_cached(self):
        # Entries are shared process-wide, not per proxy instance.
        model = get_model("falcon_r5_7")
        t1 = TranspileProxy().table(model, "linear")
        t2 = TranspileProxy().table(model, "linear")
        assert len(t1) == len(t2) == 2
        assert all(a is b for a, b in zip(t1, t2))


class TestExecutionModel:
    @pytest.fixture(scope="class")
    def fleet(self):
        return default_fleet(seed=7, names=["auckland", "algiers"])

    def test_speed_factor_is_calibrated_over_nominal_2q_duration(self):
        """On fleet seed 7 it runs from auckland's 0.776 to lagos's 1.268;
        a device without 2q gates runs at its nominal speed."""
        speeds = {}
        for qpu in default_fleet(seed=7):
            agg = qpu.calibration.aggregates()
            speeds[qpu.name] = speed_factor(qpu.calibration, qpu.model)
            assert speeds[qpu.name] == agg.duration_2q_ns / qpu.model.duration_2q_ns
        slowest, fastest = max(speeds, key=speeds.get), min(speeds, key=speeds.get)
        assert (fastest, round(speeds[fastest], 3)) == ("auckland", 0.776)
        assert (slowest, round(speeds[slowest], 3)) == ("lagos", 1.268)
        no_2q = SimpleNamespace(noise_model=SimpleNamespace(gates_2q={}))
        assert speed_factor(no_2q, get_model("falcon_r5_7")) == 1.0

    def test_quality_ordering_preserved(self, fleet):
        em = ExecutionModel(seed=1)
        job = QuantumJob.from_circuit(ghz_linear(10), shots=4000)
        good = em.expected_fidelity(job, fleet[0].calibration, fleet[0].model)
        bad = em.expected_fidelity(job, fleet[1].calibration, fleet[1].model)
        assert good > bad

    def test_mitigation_improves_and_costs(self, fleet):
        em = ExecutionModel(seed=1)
        plain = QuantumJob.from_circuit(ghz_linear(10), shots=4000)
        mit = QuantumJob.from_circuit(
            ghz_linear(10), shots=4000, mitigation="dd+zne+rem"
        )
        rng = np.random.default_rng(0)
        r_plain = em.execute(plain, fleet[1].calibration, fleet[1].model, em.noise(rng))
        r_mit = em.execute(mit, fleet[1].calibration, fleet[1].model, em.noise(rng))
        assert (
            em.expected_fidelity(mit, fleet[1].calibration, fleet[1].model)
            > em.expected_fidelity(plain, fleet[1].calibration, fleet[1].model)
        )
        assert r_mit.quantum_seconds > r_plain.quantum_seconds  # 3x shots
        assert r_mit.classical_post_seconds > r_plain.classical_post_seconds

    def test_execute_fields_valid(self, fleet):
        em = ExecutionModel(seed=2)
        job = QuantumJob.from_circuit(qaoa_maxcut(8, seed=1), shots=2000)
        rec = em.execute(job, fleet[0].calibration, fleet[0].model, em.noise(em.rng))
        assert 0.0 <= rec.fidelity <= 1.0
        assert rec.quantum_seconds > 0
        assert rec.classical_pre_seconds >= 0
        assert rec.classical_post_seconds >= 0

    def test_unknown_mitigation(self, fleet):
        em = ExecutionModel(seed=1)
        job = QuantumJob.from_circuit(ghz_linear(4), mitigation="rem")
        job.mitigation = "bogus"
        with pytest.raises(KeyError):
            em.execute(job, fleet[0].calibration, fleet[0].model, em.noise(em.rng))

    def test_outcome_derived_once_per_epoch(self, monkeypatch):
        """Counts, not clocks: what ``execute`` derives before its first
        draw is computed once per (program, mitigation, epoch)."""
        qpu = default_fleet(seed=7, names=["lagos"])[0]
        em = ExecutionModel(seed=1)
        calls = {"mitigated_components": 0, "log_error_components": 0}
        for name in calls:
            def counting(*args, _name=name, _real=getattr(em, name)):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(em, name, counting)
        job = QuantumJob.from_circuit(ghz_linear(5), shots=2000, mitigation="dd+rem")
        other = QuantumJob.from_circuit(ghz_linear(5), shots=500, mitigation="rem")

        em.execute(job, qpu.calibration, qpu.model, em.noise(em.rng))
        assert calls == {"mitigated_components": 1, "log_error_components": 1}
        em.execute(job, qpu.calibration, qpu.model, em.noise(em.rng))
        em.expected_fidelity(job, qpu.calibration, qpu.model)
        assert calls == {"mitigated_components": 1, "log_error_components": 1}
        # The same program under another stack.
        em.execute(other, qpu.calibration, qpu.model, em.noise(em.rng))
        assert calls == {"mitigated_components": 2, "log_error_components": 2}
        assert len(em._outcome_cache) == 2

        qpu.recalibrate()
        em.on_recalibration()
        assert len(em._outcome_cache) == 0
        em.execute(job, qpu.calibration, qpu.model, em.noise(em.rng))
        em.execute(job, qpu.calibration, qpu.model, em.noise(em.rng))
        assert calls == {"mitigated_components": 3, "log_error_components": 3}

        job.mitigation = "bogus"  # never memoized: raises on every call
        for _ in range(2):
            with pytest.raises(KeyError, match="bogus"):
                em.execute(job, qpu.calibration, qpu.model, em.noise(em.rng))

    def test_model_matches_trajectory_sim_smallscale(self, fleet):
        """The aggregate model must land near real noisy simulation."""
        from repro.simulation import (
            NoisySimulator,
            hellinger_fidelity,
            ideal_probabilities,
        )
        from repro.transpiler import Target, transpile

        em = ExecutionModel(seed=3)
        qpu = fleet[0]
        circ = ghz_linear(6)
        job = QuantumJob.from_circuit(circ, shots=4000)
        model_fid = em.expected_fidelity(job, qpu.calibration, qpu.model)

        res = transpile(circ, Target.from_backend(qpu))
        used = sorted(res.circuit.used_qubits())
        dense = {p: i for i, p in enumerate(used)}
        compact = res.circuit.remap(dense, len(used))
        sim = NoisySimulator(qpu.noise_model, num_trajectories=60, seed=4)
        probs = sim.noisy_probabilities(compact)
        fm = res.final_mapping
        marg = np.zeros(2**6)
        idx = np.arange(2 ** len(used))
        logical = np.zeros_like(idx)
        for q in range(6):
            logical |= ((idx >> dense[fm[q]]) & 1) << q
        np.add.at(marg, logical, probs)
        real_fid = hellinger_fidelity(marg, ideal_probabilities(circ))
        assert abs(model_fid - real_fid) < 0.2


class TestExecuteBitIdentity:
    """``execute`` against the body it had until PR 23 (re-derive
    everything, four scalar draws): every record field and the
    generator's state after every call."""

    def test_every_preset_on_two_models_across_a_recalibration(self):
        qpus = default_fleet(seed=7, names=["auckland", "lagos"])
        assert qpus[0].model.name != qpus[1].model.name
        em, ref_em = ExecutionModel(seed=1), ExecutionModel(seed=1)
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        programs = [
            (ghz_linear(3), 1000), (qaoa_maxcut(6, seed=1), 4000), (ghz_linear(6), 250)
        ]
        for epoch in range(2):
            for preset in STANDARD_STACKS:
                for circuit, shots in programs:
                    job = QuantumJob.from_circuit(circuit, shots=shots, mitigation=preset)
                    for qpu in (*qpus, *qpus):  # the second lap is served from the memo
                        got = em.execute(job, qpu.calibration, qpu.model, em.noise(rng))
                        want = execute_reference(
                            ref_em, job, qpu.calibration, qpu.model, ref_rng
                        )
                        assert astuple(got) == want
                        assert rng.bit_generator.state == ref_rng.bit_generator.state
                        assert em.expected_fidelity(
                            job, qpu.calibration, qpu.model
                        ) == expected_fidelity_reference(
                            ref_em, job, qpu.calibration, qpu.model
                        )
            for qpu in qpus:
                qpu.recalibrate()
                assert qpu.calibration.epoch == (qpu.name, epoch + 1)
            em.on_recalibration()
            ref_em.on_recalibration()

    def test_model_owned_generator_draws_the_same_stream(self):
        qpu = default_fleet(seed=7, names=["lagos"])[0]
        em, ref_em = ExecutionModel(seed=5), ExecutionModel(seed=5)
        job = QuantumJob.from_circuit(ghz_linear(5), shots=2000, mitigation="dd+rem")
        ref_rng = np.random.default_rng(5)
        for _ in range(3):
            got = em.execute(job, qpu.calibration, qpu.model, em.noise(em.rng))
            assert astuple(got) == execute_reference(
                ref_em, job, qpu.calibration, qpu.model, ref_rng
            )

    @pytest.mark.parametrize("seed", range(20))
    def test_noise_rows_are_the_one_row_draws(self, seed):
        """Three blocks of :meth:`noise_rows` against one :meth:`noise`
        row per call, value for value; the block leaves its generator
        where ``NOISE_BLOCK_ROWS`` one-row calls would."""
        em = ExecutionModel(seed=1)
        block_rng, row_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        rows = em.noise_rows(block_rng)
        for _ in range(3):
            for _ in range(NOISE_BLOCK_ROWS):
                assert next(rows) == em.noise(row_rng)
            assert block_rng.bit_generator.state == row_rng.bit_generator.state


class TestDispatchNoiseStream:
    """The simulator's generator is read by dispatch alone: replayed in
    dispatch order on ``default_rng(config.seed)``, the reference body's
    four scalar draws per job give every dispatched record, across two
    shards, a recalibration, an outage and the horizon flush."""

    def test_sharded_run_replays_on_the_config_seed(self):
        dispatched = []

        class RecordingModel(ExecutionModel):
            def execute(self, job, calibration, model, noise):
                record = super().execute(job, calibration, model, noise)
                dispatched.append((job, calibration, model, record))
                return record

        duration = 1200.0
        sim = CloudSimulator.sharded(
            default_fleet(seed=7, names=["auckland", "algiers", "lagos", "hanoi"]),
            FCFSPolicy(_fake_estimate),
            num_shards=2,
            balancer="least_loaded",
            trigger_factory=lambda i: SchedulingTrigger(
                queue_limit=10_000, interval_seconds=90.0
            ),
            execution_model=RecordingModel(seed=5),
            config=SimulationConfig(
                duration_seconds=duration, recalibrate_every_seconds=400.0, seed=3
            ),
            availability=flash_outage(["auckland"], start=300.0, duration_seconds=300.0),
        )
        gen = LoadGenerator(mean_rate_per_hour=3000.0, diurnal=False, max_qubits=27, seed=4)
        metrics = sim.run(gen.iter_arrivals(duration))
        assert metrics.outage_events == 1 and metrics.dispatched_jobs == len(dispatched)
        # More dispatches than a noise block holds, some of them flushed
        # at the horizon, some on a recalibrated device.
        assert len(dispatched) > 600
        assert any(job.schedule_time == duration for job, *_ in dispatched)
        assert {cal.cycle for _, cal, _, _ in dispatched} == {0, 1, 2}
        rng, ref_em = np.random.default_rng(3), ExecutionModel(seed=5)
        for job, calibration, model, record in dispatched:
            want = execute_reference(ref_em, job, calibration, model, rng)
            assert astuple(record) == want


class TestComponentsBitIdentity:
    """``log_error_components`` one job at a time against the array pass
    over a whole batch: every component of every row ``==``."""

    @pytest.fixture(scope="class")
    def jobs(self):
        """Every catalog family at three widths up to the widest device,
        each program twice, under two different presets."""
        presets = list(STANDARD_STACKS)
        programs = [
            compute_metrics(generate(name, width, seed=width))
            for name, (_, lo, hi) in sorted(BENCHMARKS.items())
            for width in sorted({lo, (lo + min(hi, 27)) // 2, min(hi, 27)})
        ]
        return [
            QuantumJob(metrics=m, shots=1000, mitigation=presets[(i + k) % len(presets)])
            for i, m in enumerate(programs)
            for k in (0, 4)
        ]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=8, deadline=None, derandomize=True)
    def test_every_model_over_two_calibration_cycles(self, jobs, seed):
        rng = np.random.default_rng(seed)
        em = ExecutionModel(seed=1)
        qpus = default_fleet(seed=7)
        for _ in range(2):
            for qpu in qpus:
                order = [jobs[i] for i in rng.permutation(len(jobs))]
                while order:
                    size = int(rng.integers(1, len(order) + 1))
                    batch, order = order[:size], order[size:]
                    want = components_reference(
                        [j.metrics for j in batch], qpu.calibration, qpu.model
                    )
                    got = [
                        em.log_error_components(j.metrics, qpu.calibration, qpu.model)
                        for j in batch
                    ]
                    assert got == want
            for qpu in qpus:
                qpu.recalibrate()
            em.on_recalibration()


class TestSimulatedQPU:
    def test_sequential_execution_queues(self):
        qpu = default_fleet(seed=7, names=["lagos"])[0]
        backend = SimulatedQPU(qpu)
        em = ExecutionModel(seed=1)
        rng = np.random.default_rng(0)
        j1 = QuantumJob.from_circuit(ghz_linear(4), shots=4000)
        j2 = QuantumJob.from_circuit(ghz_linear(4), shots=4000)
        backend.execute(j1, 0.0, em, em.noise(rng))
        backend.execute(j2, 0.0, em, em.noise(rng))
        assert j2.start_time == pytest.approx(j1.finish_time)
        assert backend.jobs_executed == 2
        assert backend.busy_seconds > 0

    def test_waiting_seconds(self):
        qpu = default_fleet(seed=7, names=["lagos"])[0]
        backend = SimulatedQPU(qpu)
        backend.free_at = 100.0
        assert backend.waiting_seconds(40.0) == pytest.approx(60.0)
        assert backend.waiting_seconds(200.0) == 0.0


class TestLoadGenerator:
    def test_rate_approximately_honoured(self):
        gen = LoadGenerator(mean_rate_per_hour=1200, diurnal=False, seed=1)
        apps = gen.generate(3600.0)
        assert 1000 < len(apps) < 1400

    def test_arrivals_sorted_and_bounded(self):
        gen = LoadGenerator(mean_rate_per_hour=600, seed=2)
        apps = gen.generate(1800.0)
        times = [a.arrival_time for a in apps]
        assert times == sorted(times)
        assert all(0 <= t < 1800.0 for t in times)

    def test_min_qubits_clamps_and_validates(self):
        gen = LoadGenerator(
            mean_rate_per_hour=600,
            mean_qubits=12,
            std_qubits=2,
            min_qubits=8,
            max_qubits=16,
            seed=3,
        )
        apps = gen.generate(600.0)
        assert apps
        widths = [a.quantum_job.num_qubits for a in apps]
        assert min(widths) >= 8 and max(widths) <= 16
        # An inverted range must fail loudly, not collapse every draw
        # to max_qubits.
        with pytest.raises(ValueError):
            LoadGenerator(min_qubits=20, max_qubits=16).generate(60.0)
        # Same for a benchmark whose own width cap sits below
        # min_qubits (grover tops out at 8 qubits).
        with pytest.raises(ValueError):
            LoadGenerator(
                min_qubits=10, max_qubits=16, benchmarks=("grover",)
            ).generate(60.0)

    def test_mitigation_fraction(self):
        gen = LoadGenerator(mean_rate_per_hour=600, mitigation_fraction=1.0, seed=3)
        apps = gen.generate(600.0)
        assert all(a.uses_mitigation for a in apps)

    def test_diurnal_rate_band(self):
        rates = [diurnal_rate(h) for h in range(24)]
        assert min(rates) >= 1100 - 1 and max(rates) <= 2050 + 1

    def test_mmpp_seeded_determinism(self):
        """The Markov-modulated stream is a pure function of the seed,
        and its eager and lazy views are bit-identical."""

        def make():
            return LoadGenerator(
                mean_rate_per_hour=1200,
                diurnal=False,
                arrival_process="mmpp",
                burst_rate_multiplier=8.0,
                mean_burst_seconds=90.0,
                mean_calm_seconds=400.0,
                seed=11,
            )

        a = make().generate(3600.0)
        b = make().generate(3600.0)
        lazy = list(make().iter_arrivals(3600.0))
        assert len(a) == len(b) == len(lazy) > 0
        for x, y, z in zip(a, b, lazy):
            assert x.arrival_time == y.arrival_time == z.arrival_time
            assert (
                x.quantum_job.metrics.fingerprint
                == y.quantum_job.metrics.fingerprint
                == z.quantum_job.metrics.fingerprint
            )

    def test_mmpp_burstier_than_poisson(self):
        """At a matched nominal rate, MMPP inter-arrivals must show more
        dispersion than Poisson (CV > 1), which is the point of the mode."""

        def inter_cv(process):
            gen = LoadGenerator(
                mean_rate_per_hour=1200,
                diurnal=False,
                arrival_process=process,
                burst_rate_multiplier=10.0,
                mean_burst_seconds=120.0,
                mean_calm_seconds=600.0,
                seed=5,
            )
            times = [a.arrival_time for a in gen.generate(4 * 3600.0)]
            gaps = np.diff(times)
            return float(np.std(gaps) / np.mean(gaps))

        poisson_cv = inter_cv("poisson")
        mmpp_cv = inter_cv("mmpp")
        assert poisson_cv == pytest.approx(1.0, abs=0.15)
        assert mmpp_cv > poisson_cv + 0.3

    def test_mmpp_validation(self):
        with pytest.raises(ValueError, match="arrival_process"):
            LoadGenerator(arrival_process="bogus").generate(60.0)
        with pytest.raises(ValueError, match="burst_rate_multiplier"):
            LoadGenerator(
                arrival_process="mmpp", burst_rate_multiplier=1.0
            ).generate(60.0)
        # Zero holding times would pin time at the flip instant and loop
        # forever; they must fail loudly instead.
        with pytest.raises(ValueError, match="mean_calm_seconds"):
            LoadGenerator(
                arrival_process="mmpp", mean_calm_seconds=0.0
            ).generate(60.0)
        with pytest.raises(ValueError, match="mean_burst_seconds"):
            LoadGenerator(
                arrival_process="mmpp", mean_burst_seconds=-1.0
            ).generate(60.0)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"mean_rate_per_hour": 0}, "mean_rate_per_hour"),
            ({"mean_rate_per_hour": -5}, "mean_rate_per_hour"),
            ({"circuit_pool_size": -1}, "circuit_pool_size"),
            ({"arrival_process": "bogus"}, "arrival_process"),
            (
                {"arrival_process": "mmpp", "burst_rate_multiplier": 1.0},
                "burst_rate_multiplier",
            ),
            (
                {"arrival_process": "mmpp", "mean_calm_seconds": 0.0},
                "mean_calm_seconds",
            ),
            # The workload fields: the sampler is built (and judges them)
            # in __post_init__, not at the first next().
            ({"min_qubits": 30}, "min_qubits"),
            ({"benchmarks": ("nope",)}, "unknown benchmarks.*'nope'.*'adder'"),
            ({"shots_grid": ()}, "shots_grid"),
            ({"benchmarks": ("grover",), "min_qubits": 10}, "grover"),
            ({"std_qubits": -1.0}, "std_qubits"),
            ({"mitigation_fraction": 1.5}, "mitigation_fraction"),
            # A non-finite width parameter raised ValueError (NaN) or
            # OverflowError (inf) only at the first next(); a pool of 0
            # silently sampled a fresh program per arrival, like None.
            ({"mean_qubits": float("nan")}, "mean_qubits"),
            ({"mean_qubits": float("inf")}, "mean_qubits"),
            ({"std_qubits": float("inf")}, "std_qubits"),
            ({"std_qubits": float("nan")}, "std_qubits"),
            ({"circuit_pool_size": 0}, "circuit_pool_size"),
            # The trigger's fields (a SchedulingTrigger, not a generator):
            # a non-positive interval re-armed its deadline at the same
            # instant forever, so run() never returned.
            ({"interval_seconds": 0}, "interval_seconds"),
            ({"interval_seconds": -5}, "interval_seconds"),
            ({"queue_limit": 0}, "queue_limit"),
            # Non-finite rates: inf yielded every arrival at t = 0 and
            # never ended, NaN never yielded; under "mmpp" the same holds
            # for the burst multiplier and the holding times.
            ({"mean_rate_per_hour": float("inf")}, "mean_rate_per_hour.*inf"),
            ({"mean_rate_per_hour": float("nan")}, "mean_rate_per_hour.*nan"),
            (
                {"arrival_process": "mmpp", "burst_rate_multiplier": float("inf")},
                "burst_rate_multiplier.*inf",
            ),
            (
                {"arrival_process": "mmpp", "burst_rate_multiplier": float("nan")},
                "burst_rate_multiplier.*nan",
            ),
            (
                {"arrival_process": "mmpp", "mean_calm_seconds": float("nan")},
                "mean_calm_seconds.*nan",
            ),
            (
                {"arrival_process": "mmpp", "mean_burst_seconds": float("inf")},
                "mean_burst_seconds.*inf",
            ),
        ],
    )
    def test_bad_config_fails_at_construction(self, kwargs, field):
        """Regression: rate 0 was a ZeroDivisionError at the first
        next(), rate < 0 'scale < 0', pool -1 'high <= 0', an unknown
        benchmark a bare KeyError — none named the field, all surfaced
        inside the generator (i.e. inside ``CloudSimulator.run``)."""
        trigger_fields = ("interval_seconds", "queue_limit")
        build = SchedulingTrigger if field in trigger_fields else LoadGenerator
        with pytest.raises(ValueError, match=field):
            build(**kwargs)

    def test_poisson_stream_unchanged_by_mmpp_support(self):
        """The default process draws exactly the stream it always did —
        adding the MMPP branch must not shift any seeded scenario."""
        times = [
            a.arrival_time
            for a in LoadGenerator(
                mean_rate_per_hour=600, seed=2
            ).generate(600.0)
        ]
        burst_times = [
            a.arrival_time
            for a in LoadGenerator(
                mean_rate_per_hour=600, seed=2, arrival_process="mmpp"
            ).generate(600.0)
        ]
        assert times and times != burst_times  # mmpp really modulates
        reference = [
            a.arrival_time
            for a in LoadGenerator(
                mean_rate_per_hour=600, seed=2
            ).generate(600.0)
        ]
        assert times == reference

    def test_diurnal_rate_peaks_at_14h_and_clips_at_the_band_floor(self):
        """At the IBM mean the swing is (2,050 - 1,100) / 2 = 475 jobs/h:
        1,975 at 14:00, and 1,025 at 02:00 clipped up to 1,100."""
        assert diurnal_rate(14.0) == 1975.0
        assert diurnal_rate(2.0) == 1100.0

    def test_diurnal_swing_scales_with_mean_rate(self):
        """Regression: the sinusoidal amplitude must rescale with
        ``mean_rate`` — a 2x load profile is exactly the IBM profile
        doubled, not a flattened swing clipped to a doubled band."""
        for hour in np.linspace(0.0, 24.0, 49):
            base = diurnal_rate(hour, mean_rate=1500.0)
            assert diurnal_rate(hour, mean_rate=3000.0) == pytest.approx(
                2.0 * base
            )
            assert diurnal_rate(hour, mean_rate=750.0) == pytest.approx(
                0.5 * base
            )
        # The scaled band still clips: the doubled profile stays inside
        # the doubled IBM band.
        doubled = [diurnal_rate(h, mean_rate=3000.0) for h in range(24)]
        assert min(doubled) >= 2 * 1100 - 1 and max(doubled) <= 2 * 2050 + 1

    def test_diurnal_rate_is_the_np_clip_form(self):
        """Bit for bit the ``np.clip`` form it replaced, on the IBM band."""
        band = (1100.0, 2050.0)
        clipped = set()
        for mean_rate in (1500.0, 4500.0, 733.3):
            scale = mean_rate / 1500.0
            lo, hi = band[0] * scale, band[1] * scale
            amplitude = (band[1] - band[0]) / 2.0 * scale
            for hour in np.linspace(0.0, 24.0, 24 * 60 + 1):
                rate = mean_rate + amplitude * np.sin((hour - 8.0) / 24.0 * 2 * np.pi)
                expected = float(np.clip(rate, lo, hi))
                got = diurnal_rate(hour, mean_rate)
                assert type(got) is float and got == expected, (mean_rate, hour)
                clipped.update(e for e in (lo, hi) if expected == e)
        assert len(clipped) == 3


class TestCloudSimulator:
    def _run(self, policy, apps, duration=600.0, trigger=None):
        fleet = default_fleet(seed=7, names=["auckland", "algiers", "lagos"])
        sim = CloudSimulator(
            fleet,
            policy,
            ExecutionModel(seed=5),
            trigger=trigger,
            config=SimulationConfig(duration_seconds=duration, seed=5),
        )
        return sim.run(apps)

    def test_fcfs_dispatches_all_jobs(self):
        gen = LoadGenerator(mean_rate_per_hour=300, max_qubits=27, seed=4)
        apps = gen.generate(600.0)
        metrics = self._run(FCFSPolicy(_fake_estimate), apps)
        assert metrics.dispatched_jobs == len(apps)
        # Completion is counted when the COMPLETION event folds inside
        # the horizon; late finishers stay dispatched-only.
        assert 0 < metrics.completed_jobs <= metrics.dispatched_jobs
        assert metrics.mean_fidelity.mean() > 0

    def test_qonductor_batches_and_completes(self):
        gen = LoadGenerator(mean_rate_per_hour=300, max_qubits=27, seed=4)
        apps = gen.generate(600.0)
        policy = QonductorScheduler(_fake_estimate, seed=1, max_generations=8)
        metrics = self._run(
            policy, apps, trigger=SchedulingTrigger(queue_limit=20, interval_seconds=60)
        )
        assert metrics.dispatched_jobs == len(apps)
        assert metrics.completed_jobs <= metrics.dispatched_jobs
        assert metrics.scheduling_cycles >= 1
        assert metrics.scheduling_cycles < len(apps)  # batched, not per-job

    def test_oversized_jobs_fail(self):
        job = QuantumJob.from_circuit(ghz_linear(100))
        app = HybridApplication(quantum_job=job, arrival_time=1.0)
        metrics = self._run(FCFSPolicy(_fake_estimate), [app])
        assert metrics.unschedulable_jobs == 1
        assert job.status is JobStatus.FAILED

    def test_job_arrives_with_its_application(self):
        """The application owns the arrival instant: on an idle fleet its
        job is dispatched on arrival and finishes within the application."""
        job = QuantumJob.from_circuit(ghz_linear(5))
        app = HybridApplication(job, arrival_time=500.0)
        self._run(FCFSPolicy(_fake_estimate), [app], duration=1000.0)
        assert job.status is JobStatus.COMPLETED
        assert job.arrival_time == app.arrival_time
        assert job.start_time - job.arrival_time == 0.0
        assert 0.0 < job.completion_time <= app.completion_time

    def test_metrics_series_sampled(self):
        gen = LoadGenerator(mean_rate_per_hour=300, max_qubits=27, seed=4)
        apps = gen.generate(600.0)
        metrics = self._run(FCFSPolicy(_fake_estimate), apps)
        times, utils = metrics.mean_utilization.as_arrays()
        assert len(times) >= 3
        assert np.all((utils >= 0) & (utils <= 1))

    def test_recalibration_hook(self):
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


class TestImbalance:
    def test_one_qpu_queues_what_it_cannot_serve(self):
        """Every day's 20,000 arrivals go to the only device, which serves
        4,000: 16,000 more queued each day."""
        fleet = default_fleet(seed=9, names=["lagos"])
        trace = simulate_queue_imbalance(fleet, num_days=3, seed=0)
        assert trace.queue_sizes.tolist() == [[16_000.0], [32_000.0], [48_000.0]]

    def test_greedy_users_create_hotspots(self):
        fleet = default_fleet(seed=9, names=["algiers", "cairo", "hanoi", "kolkata"])
        trace = simulate_queue_imbalance(fleet, num_days=7, seed=0)
        ratios = [trace.max_ratio(d) for d in range(7)]
        assert max(ratios) > 10.0  # order-of-magnitude imbalance

    def test_trace_shape(self):
        fleet = default_fleet(seed=9, names=["lagos", "nairobi"])
        trace = simulate_queue_imbalance(fleet, num_days=3, seed=1)
        assert trace.queue_sizes.shape == (3, 2)
        assert np.all(trace.queue_sizes >= 0)
