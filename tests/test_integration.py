"""Integration tests: cross-module flows and small end-to-end experiments."""

import numpy as np
import pytest

from repro.backends import default_fleet
from repro.cloud import (
    CloudSimulator,
    ExecutionModel,
    LoadGenerator,
    SimulationConfig,
)
from repro.estimator import ResourceEstimator
from repro.scheduler import FCFSPolicy, QonductorScheduler
from repro.workloads import ghz_linear

NAMES = ["auckland", "cairo", "algiers", "lagos"]


@pytest.fixture(scope="module")
def estimator():
    return ResourceEstimator.train_for_fleet(
        default_fleet(seed=7, names=NAMES),
        num_records=600,
        execution_model=ExecutionModel(seed=3),
        seed=4,
    )


class TestEndToEndScheduling:
    def test_qonductor_beats_fcfs_under_load(self, estimator):
        """The headline claim at small scale: lower JCT, slightly lower
        fidelity, better load spread."""
        duration = 900.0
        gen = LoadGenerator(mean_rate_per_hour=1200, seed=5)

        def run(policy_cls):
            fleet = default_fleet(seed=7, names=NAMES)
            apps = gen.generate(duration)
            if policy_cls is QonductorScheduler:
                policy = QonductorScheduler(
                    estimator.cached(), seed=5, max_generations=15
                )
            else:
                policy = FCFSPolicy(estimator.cached())
            sim = CloudSimulator(
                fleet,
                policy,
                ExecutionModel(seed=11),
                config=SimulationConfig(duration_seconds=duration, seed=5),
            )
            return sim.run(apps).summary()

    # Same arrival seed -> identical workloads for both policies.
        s_qon = run(QonductorScheduler)
        s_fcfs = run(FCFSPolicy)
        assert s_qon["final_mean_jct"] < s_fcfs["final_mean_jct"]
        assert s_qon["max_load_spread"] < s_fcfs["max_load_spread"]
        # Fidelity sacrifice stays small (paper: < 3 %; we allow 10 pp).
        assert s_fcfs["mean_fidelity"] - s_qon["mean_fidelity"] < 0.10

    def test_estimator_guides_scheduler_consistently(self, estimator):
        """Scheduler decisions should correlate with realized fidelity."""
        fleet = default_fleet(seed=7, names=NAMES)
        em = ExecutionModel(seed=21)
        scheduler = QonductorScheduler(
            estimator.cached(), preference="fidelity", seed=2,
            max_generations=15,
        )
        from repro.cloud.job import QuantumJob

        jobs = [
            QuantumJob.from_circuit(ghz_linear(8), shots=2000)
            for _ in range(10)
        ]
        schedule = scheduler.schedule(jobs, fleet, {q.name: 0.0 for q in fleet})
        rng = np.random.default_rng(0)
        for dec in schedule.decisions:
            qpu = next(q for q in fleet if q.name == dec.qpu_name)
            rec = em.execute(dec.job, qpu.calibration, qpu.model, rng)
            assert abs(rec.fidelity - dec.est_fidelity) < 0.35

    def test_calibration_drift_affects_estimates(self, estimator):
        fleet = default_fleet(seed=7, names=NAMES)
        from repro.cloud.job import QuantumJob

        job = QuantumJob.from_circuit(ghz_linear(8), shots=2000)
        before = estimator.estimate_block([job], [fleet[0]])[0].item()
        for _ in range(3):
            fleet[0].recalibrate()
        after = estimator.estimate_block([job], [fleet[0]])[0].item()
        assert before != after


class TestExperimentHarness:
    def test_table1(self):
        from repro.experiments import table1_pricing

        r = table1_pricing()
        assert r["measured"]["qpu_vs_highend_orders_of_magnitude"] == 2
        assert r["measured"]["classical_trade_cheaper"]

    def test_fig2c_smoke(self):
        from repro.experiments import fig2c_load_imbalance

        r = fig2c_load_imbalance(num_days=4)
        assert r["measured"]["max_queue_ratio"] > 5.0

    def test_fig9c_smoke(self):
        from repro.experiments import fig9c_stage_runtimes

        r = fig9c_stage_runtimes(sizes=(2, 4))
        assert set(r["measured"]["stage_seconds_by_size"]) == {2, 4}
