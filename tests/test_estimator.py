"""Resource-estimator tests: features, dataset, models, numerical baseline,
cost model, and plan generation."""

import functools
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import repro
from helpers.reference_cv import whole_dataset_ridge_cv
from helpers.reference_ridge import assert_numpy_route_matches
from repro.backends import default_fleet
from repro.circuits import compute_metrics
from repro.cloud import ExecutionModel
from repro.cloud.job import QuantumJob
from repro.estimator import (
    NumericalEstimator,
    ResourceEstimator,
    TABLE1_RATES,
    fidelity_features,
    generate_dataset,
    mitigation_flags,
    plan_cost,
    runtime_features,
    train_estimators,
)
from repro.experiments.common import make_fleet
from repro.ml import polynomial_ridge_cv
from repro.workloads import ghz_linear, qaoa_ring_maxcut

FLEET_NAMES = ["auckland", "algiers", "lagos"]


def _one_pair(source, job, qpu):
    """(fidelity, seconds) of one pair through ``source.estimate_block``,
    scored whether or not the job fits the QPU."""
    fid, sec = source.estimate_block([job], [qpu], np.ones((1, 1), dtype=bool))
    return fid.item(), sec.item()


@pytest.fixture(scope="module")
def fleet():
    return default_fleet(seed=7, names=FLEET_NAMES)


@pytest.fixture(scope="module")
def execution_model():
    return ExecutionModel(seed=3)


@pytest.fixture(scope="module")
def trained(fleet, execution_model):
    return ResourceEstimator.train_for_fleet(
        default_fleet(seed=7, names=FLEET_NAMES),
        num_records=600,
        execution_model=execution_model,
        seed=4,
    )


class TestFeatures:
    def test_mitigation_flags(self):
        assert mitigation_flags("none") == [0, 0, 0, 0]
        assert mitigation_flags("dd+zne+rem") == [1, 0, 1, 1]
        with pytest.raises(KeyError):
            mitigation_flags("nope")

    def test_feature_vectors_finite(self, fleet):
        m = compute_metrics(ghz_linear(5))
        xf = fidelity_features(m, 4000, "zne+rem", fleet[0].calibration)
        xr = runtime_features(m, 4000, "zne+rem", fleet[0].calibration)
        assert np.all(np.isfinite(xf)) and np.all(np.isfinite(xr))
        assert len(xf) == 16 and len(xr) == 11

    def test_features_differ_across_qpus(self, fleet):
        m = compute_metrics(ghz_linear(5))
        a = fidelity_features(m, 1000, "none", fleet[0].calibration)
        b = fidelity_features(m, 1000, "none", fleet[1].calibration)
        assert not np.allclose(a, b)


class TestDataset:
    def test_generation_shapes(self, fleet, execution_model):
        ds = generate_dataset(
            default_fleet(seed=7, names=FLEET_NAMES),
            num_records=120,
            execution_model=execution_model,
            seed=1,
        )
        assert len(ds) > 100
        assert ds.X_fidelity.shape[0] == len(ds.y_fidelity)
        assert np.all((ds.y_fidelity >= 0) & (ds.y_fidelity <= 1))
        assert np.all(ds.y_runtime > 0)

    @pytest.mark.parametrize("records, cycles", [(400, 0), (401, 1)])
    def test_the_fleet_recalibrates_every_400_records(self, records, cycles):
        fleet = default_fleet(seed=7, names=FLEET_NAMES)
        generate_dataset(
            fleet, num_records=records, execution_model=ExecutionModel(seed=3), seed=1
        )
        assert [q.cycle for q in fleet] == [cycles] * len(fleet)

    def test_covers_multiple_mitigations_and_qpus(self, execution_model):
        ds = generate_dataset(
            default_fleet(seed=7, names=FLEET_NAMES),
            num_records=150,
            execution_model=execution_model,
            seed=2,
        )
        assert len(set(ds.mitigations)) >= 4
        assert len(set(ds.qpu_names)) >= 2


class TestTrainedEstimators:
    def test_cv_r2_reasonable(self, trained):
        assert trained.estimators.fidelity.cv_r2 > 0.85
        assert trained.estimators.runtime.cv_r2 > 0.9

    def test_each_model_keeps_its_best_degree_score(self):
        """``trained_estimator(seed=7)``'s two models against
        ``polynomial_ridge_cv``'s scores of degrees 1-3 on their training
        set (runtime on ``log1p`` seconds, as training fits it)."""
        ds = _cold_start_dataset("trained_estimator")
        models = trained_estimator(seed=7).estimators
        for model, X, y in [
            (models.fidelity, ds.X_fidelity, ds.y_fidelity),
            (models.runtime, ds.X_runtime, np.log1p(ds.y_runtime)),
        ]:
            scores = polynomial_ridge_cv(X, y, (1, 2, 3), alpha=1e-3, seed=7)
            assert model.degree == 1 + int(np.argmax(scores))
            assert model.cv_r2 == scores.max()

    def test_predictions_clipped(self, trained, fleet):
        job = QuantumJob(metrics=compute_metrics(ghz_linear(20)), shots=20000)
        fid, sec = _one_pair(trained, job, fleet[1])
        assert 0.0 <= fid <= 1.0
        assert sec >= 0.0

    def test_estimates_track_quality(self, trained, fleet):
        """Better-calibrated QPU -> higher estimated fidelity."""
        job = QuantumJob.from_circuit(ghz_linear(10), shots=4000)
        f_good, _ = _one_pair(trained, job, fleet[0])  # auckland
        f_bad, _ = _one_pair(trained, job, fleet[1])  # algiers
        assert f_good > f_bad

    def test_mitigation_raises_estimate(self, trained, fleet):
        m = compute_metrics(ghz_linear(10))
        f_plain, _ = _one_pair(trained, QuantumJob(metrics=m, shots=4000), fleet[1])
        f_mit, _ = _one_pair(
            trained, QuantumJob(metrics=m, shots=4000, mitigation="dd+zne+rem"), fleet[1]
        )
        assert f_mit > f_plain

    def test_train_too_small_raises(self, execution_model):
        ds = generate_dataset(
            default_fleet(seed=7, names=["lagos"]),
            num_records=20,
            execution_model=execution_model,
            seed=3,
        )
        with pytest.raises(ValueError):
            train_estimators(ds)


class TestNumericalBaseline:
    def test_ignores_mitigation(self, fleet, execution_model):
        num = NumericalEstimator(proxy=execution_model.proxy)
        m = compute_metrics(ghz_linear(8))
        f1 = num.estimate_fidelity(m, 4000, "none", fleet[0].calibration, fleet[0].model)
        f2 = num.estimate_fidelity(
            m, 4000, "dd+zne+rem", fleet[0].calibration, fleet[0].model
        )
        assert f1 == pytest.approx(f2)

    def test_runtime_scales_with_shots(self, fleet, execution_model):
        num = NumericalEstimator(proxy=execution_model.proxy)
        m = compute_metrics(ghz_linear(8))
        t1 = num.estimate_runtime(m, 1000, "none", fleet[0].calibration, fleet[0].model)
        t2 = num.estimate_runtime(m, 8000, "none", fleet[0].calibration, fleet[0].model)
        assert t2 > t1

    def test_regression_beats_numerical_on_mitigated_jobs(
        self, trained, fleet, execution_model
    ):
        num = NumericalEstimator(proxy=execution_model.proxy)
        rng = np.random.default_rng(5)
        errs_reg, errs_num = [], []
        for seed in range(30):
            circ = ghz_linear(4 + seed % 8)
            job = QuantumJob.from_circuit(circ, shots=4000, mitigation="dd+zne+rem")
            qpu = fleet[seed % len(fleet)]
            real = execution_model.execute(
                job, qpu.calibration, qpu.model, execution_model.noise(rng)
            )
            f_reg, _ = _one_pair(trained, job, qpu)
            f_num = num.estimate_fidelity(
                job.metrics, job.shots, job.mitigation, qpu.calibration, qpu.model
            )
            errs_reg.append(abs(f_reg - real.fidelity))
            errs_num.append(abs(f_num - real.fidelity))
        assert np.mean(errs_reg) < np.mean(errs_num)


class TestCost:
    def test_table1_orders_of_magnitude(self):
        assert 3000 <= TABLE1_RATES["qpu"].price_per_hour <= 6000
        assert 10 <= TABLE1_RATES["highend_vm"].price_per_hour <= 40
        assert 1 <= TABLE1_RATES["standard_vm"].price_per_hour <= 5

    def test_plan_cost_monotone(self):
        assert plan_cost(120, 0) > plan_cost(60, 0)
        assert plan_cost(60, 600) > plan_cost(60, 0)

    def test_classical_trade_is_cheap(self):
        # An hour of high-end VM costs far less than an hour of QPU.
        vm_hour = plan_cost(0.0, 3600.0, classical_tier="highend_vm")
        qpu_hour = plan_cost(3600.0, 0.0)
        assert qpu_hour / vm_hour > 50

    @pytest.mark.parametrize(
        "tier, want",
        # QPU floor 30 $ + 60 s at 4,500 $/h; VM floor + 120 s at its rate.
        [("standard_vm", 30.0 + 75.0 + 0.5 + 0.1), ("highend_vm", 30.0 + 75.0 + 5.0 + 25.0 / 30)],
    )
    def test_plan_cost_at_table1_rates(self, tier, want):
        assert plan_cost(60.0, 120.0, classical_tier=tier) == pytest.approx(want)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            plan_cost(-1.0, 0.0)


class TestPlans:
    def test_plans_are_pareto_and_sorted(self, trained):
        m = compute_metrics(qaoa_ring_maxcut(12, seed=2))
        plans = trained.generate_plans(m, 4000, num_plans=5)
        assert 1 <= len(plans) <= 5
        fids = [p.est_fidelity for p in plans]
        assert fids == sorted(fids, reverse=True)
        # Pareto: strictly better fidelity must cost more total time.
        for hi, lo in zip(plans, plans[1:]):
            assert hi.est_total_seconds >= lo.est_total_seconds

    def test_min_fidelity_filter(self, trained):
        m = compute_metrics(qaoa_ring_maxcut(12, seed=2))
        all_plans = trained.generate_plans(m, 4000, num_plans=8)
        filtered = trained.generate_plans(
            m, 4000, num_plans=8, min_fidelity=all_plans[0].est_fidelity - 1e-9
        )
        assert all(
            p.est_fidelity >= all_plans[0].est_fidelity - 1e-6 for p in filtered
        )

    def test_too_wide_job_gets_no_plans(self, trained):
        m = compute_metrics(ghz_linear(120))
        assert trained.generate_plans(m, 1000) == []

    def test_refresh_templates(self, trained):
        # Dataset generation already advanced the training fleet's cycles;
        # move a fresh fleet two cycles further so averages must change.
        fleet = default_fleet(seed=7, names=FLEET_NAMES)
        for q in fleet:
            q.recalibrate()
            q.recalibrate()
            q.recalibrate()
        def error_2q():
            return {
                k: t.calibration.noise_model.mean_gate_error_2q()
                for k, t in trained.templates.items()
            }

        before = error_2q()
        trained.refresh_templates(fleet)
        after = error_2q()
        assert before != after


# ---------------------------------------------------------------------------
# The unified estimate-source surface (EstimateSource / estimate_block)
# ---------------------------------------------------------------------------

from repro.estimator import (  # noqa: E402
    PairwiseEstimateSource,
    feasibility_matrix,
    require_estimate_source,
)
from repro.estimator.source import best_feasible  # noqa: E402


def _jobs_with_circuits(widths=(2, 4, 3, 6, 27)):
    return [QuantumJob.from_circuit(ghz_linear(w), shots=2000) for w in widths]


@pytest.mark.parametrize(
    "fid, feasible, want",
    [
        # A tie goes to the first column; a higher infeasible value is skipped.
        ([[0.5, 0.9, 0.9, 0.95]], [[True, True, True, False]], [(1, 0.9)]),
        ([[0.2, 0.1], [0.3, 0.4]], [[False, False], [True, False]], [None, (0, 0.3)]),
        (np.zeros((2, 0)), np.zeros((2, 0)), [None, None]),  # no QPUs
        (np.zeros((0, 3)), np.zeros((0, 3)), []),  # no jobs
    ],
)
def test_best_feasible_is_the_first_feasible_maximum(fid, feasible, want):
    got = best_feasible(np.asarray(fid, dtype=float), np.asarray(feasible, dtype=bool))
    assert got == want


class TestEstimateSourceAdapter:
    def test_pairwise_block_is_row_major_loop(self, fleet):
        """One call per feasible cell, in row-major order; infeasible
        cells are never scored."""
        jobs = _jobs_with_circuits()
        feas = feasibility_matrix(jobs, fleet)
        assert not feas.all()
        calls = []

        def fn(job, qpu):
            calls.append((job.job_id, qpu.name))
            return 0.5 + 0.01 * len(calls), float(len(calls))

        source = PairwiseEstimateSource(fn)
        fid, sec = source.estimate_block(jobs, fleet)
        cells = [
            (i, k)
            for i in range(len(jobs))
            for k in range(len(fleet))
            if feas[i, k]
        ]
        assert calls == [(jobs[i].job_id, fleet[k].name) for i, k in cells]
        ref_fid, ref_sec = np.zeros(feas.shape), np.zeros(feas.shape)
        for n, (i, k) in enumerate(cells, start=1):
            ref_fid[i, k], ref_sec[i, k] = 0.5 + 0.01 * n, float(n)
        assert np.array_equal(fid, ref_fid) and np.array_equal(sec, ref_sec)
        assert source(jobs[0], fleet[0])[1] == len(cells) + 1  # plain call

    def test_block_capable_source_passes_through(self, trained):
        cached = trained.cached()
        assert require_estimate_source(cached, "test") is cached
        assert require_estimate_source(trained, "test") is trained

    def test_unadaptable_raises(self):
        """Policies take an EstimateSource and nothing else; the error
        names the fix."""
        from repro.scheduler import BatchedFCFSPolicy, FCFSPolicy, QonductorScheduler

        for make in (QonductorScheduler, FCFSPolicy, BatchedFCFSPolicy):
            for bad in (lambda job, qpu: (0.8, 5.0), 42):
                with pytest.raises(TypeError, match="PairwiseEstimateSource"):
                    make(bad)


class TestEstimateBlock:
    def test_trained_block_matches_pairwise(self, trained, fleet):
        jobs = _jobs_with_circuits()
        fid, sec = trained.estimate_block(jobs, fleet)
        feas = feasibility_matrix(jobs, fleet)
        for i, job in enumerate(jobs):
            for k, qpu in enumerate(fleet):
                if not feas[i, k]:
                    assert fid[i, k] == 0.0 and sec[i, k] == 0.0
                    continue
                pf, ps = _one_pair(trained, job, qpu)
                assert abs(fid[i, k] - pf) <= 1e-12
                assert abs(sec[i, k] - ps) <= 1e-12

    def test_cached_block_matches_trained_block(self, trained, fleet):
        jobs = _jobs_with_circuits()
        ref_fid, ref_sec = trained.estimate_block(jobs, fleet)
        cached = trained.cached()
        for _ in range(2):  # second pass served from memo
            fid, sec = cached.estimate_block(jobs, fleet)
            np.testing.assert_allclose(fid, ref_fid, rtol=0, atol=1e-12)
            np.testing.assert_allclose(sec, ref_sec, rtol=0, atol=1e-12)
        assert cached.stats.hits > 0


# ---------------------------------------------------------------------------
# The stacked fill vs the per-QPU loops it replaced (tests/helpers keeps
# them verbatim): equal bits, equal cache table, equal counters
# ---------------------------------------------------------------------------

from helpers.reference_estimates import (  # noqa: E402
    cache_table,
    reference_block,
    reference_cached_block,
    reference_plans,
)
from helpers.reference_models import (  # noqa: E402
    polynomial_transform_reference,
    predict_row_reference,
)
from repro.backends.fleet import fleet_of_size  # noqa: E402
from repro.experiments.common import trained_estimator  # noqa: E402
from repro.estimator import (  # noqa: E402
    CachedEstimator,
    RegressionEstimator,
    generate_resource_plans,
)
from repro.estimator import models  # noqa: E402


def _count_predicts(monkeypatch) -> list:
    """Record every ``RegressionEstimator.predict`` call (looked up at
    call time, the way ``bench/tracing.py`` patches it)."""
    calls = []
    original = RegressionEstimator.predict

    def predict(self, X):
        calls.append((self.target, len(X)))
        return original(self, X)

    monkeypatch.setattr(RegressionEstimator, "predict", predict)
    return calls


def _table_gets(cached, monkeypatch) -> list:
    """Record every key ``cached`` looks up in its table from now on."""
    gets = []
    get = cached.cache.get

    def counting_get(key):
        gets.append(key)
        return get(key)

    monkeypatch.setattr(cached.cache, "get", counting_get)
    return gets


def _many_jobs(count):
    """``count`` distinct jobs (widths 2-6, distinct shots), every one a
    cache miss."""
    circuits = [compute_metrics(ghz_linear(w)) for w in range(2, 7)]
    mitigations = ("none", "zne+rem")
    return [
        QuantumJob(metrics=circuits[i % 5], shots=1000 + 10 * i, mitigation=mitigations[i % 2])
        for i in range(count)
    ]


@PairwiseEstimateSource
def _shots_and_name(job, qpu):
    """A cheap deterministic pair scorer for the pairwise source."""
    return 1.0 / (job.shots + len(qpu.name)), float(job.num_qubits)


class TestStackedFillBitIdentity:
    @staticmethod
    def _assert_same_blocks(trained, blocks, **cache_kwargs):
        """Drive the same ``(jobs, qpus)`` blocks through the stacked
        fill and through the reference loop, each on its own cache.
        ``best_fidelity`` of every source equals (``==``) the first
        feasible maximum of the fidelity half of its ``estimate_block``,
        and a table filled by it alone keeps the same keys, fidelities
        and counters, in the same order, with no runtime stored (a
        repeated block is answered by its memo, and a lookup reorders
        nothing)."""
        stacked, reference = trained.cached(**cache_kwargs), trained.cached(**cache_kwargs)
        fidelity_only = trained.cached(**cache_kwargs)
        for jobs, qpus in blocks:
            got = stacked.estimate_block(jobs, qpus)
            want = reference_cached_block(reference, jobs, qpus)
            assert got[0].shape == want[0].shape == (len(jobs), len(qpus))
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
            assert cache_table(stacked) == cache_table(reference)
            assert stacked.stats == reference.stats
            feasible = feasibility_matrix(jobs, qpus)
            best = fidelity_only.best_fidelity(jobs, qpus)
            assert best == best_feasible(got[0], feasible)
            table = cache_table(fidelity_only)
            assert [(key, fid) for key, (fid, _) in table] == [
                (key, fid) for key, (fid, _) in cache_table(stacked)
            ]
            assert all(sec is None for _, (_, sec) in table)
            assert fidelity_only.stats == stacked.stats
            for source in (trained, _shots_and_name):
                best = source.best_fidelity(jobs, qpus)
                assert len(best) == len(jobs)
                assert best == best_feasible(source.estimate_block(jobs, qpus)[0], feasible)
        return stacked

    def test_mixed_widths_with_infeasible_pairs(self, trained, fleet):
        jobs = _jobs_with_circuits()  # the 27-qubit job does not fit lagos
        assert not feasibility_matrix(jobs, fleet).all()
        cached = self._assert_same_blocks(trained, [(jobs, fleet), (jobs, fleet)])
        assert cached.stats.hits == cached.stats.misses > 0

    def test_offline_qpu_column_stays_zero(self, trained):
        qpus = default_fleet(seed=7, names=FLEET_NAMES)
        qpus[1].online = False
        jobs = _jobs_with_circuits()
        cached = self._assert_same_blocks(trained, [(jobs, qpus)])
        fid, sec = cached.estimate_block(jobs, qpus)
        assert not fid[:, 1].any() and not sec[:, 1].any()

    def test_partially_warm_cache(self, trained, fleet):
        """Column 0 mixed (two of five jobs warm), column 1 all-hit,
        column 2 all-miss."""
        jobs = _jobs_with_circuits()
        self._assert_same_blocks(
            trained,
            [(jobs[:2], fleet[:1]), (jobs, fleet[1:2]), (jobs, fleet)],
        )

    def test_duplicate_keys_inside_one_block(self, trained, fleet):
        jobs = _jobs_with_circuits(widths=(3, 5, 3, 3, 5))
        cached = self._assert_same_blocks(trained, [(jobs, fleet)])
        assert len(cached.cache) == 2 * len(fleet)
        assert cached.stats.misses == len(jobs) * len(fleet)

    def test_per_arrival_block_costs_two_predicts(self, trained, monkeypatch):
        """The ``fcfs_pool`` shape: a cold 1 x 8 block is one predict per
        model over 8 stacked rows, and a warm one is none at all.  Asked
        for the best fidelity, it is one fidelity predict, and a repeat
        is neither a predict nor a table lookup."""
        qpus = fleet_of_size(8, seed=7)
        jobs = _jobs_with_circuits(widths=(5,))
        self._assert_same_blocks(trained, [(jobs, qpus), (jobs, qpus)])
        cached = trained.cached()
        calls = _count_predicts(monkeypatch)
        cached.estimate_block(jobs, qpus)
        assert sorted(calls) == [("fidelity", 8), ("runtime", 8)]
        cached.estimate_block(jobs, qpus)  # all-hit
        assert len(calls) == 2
        calls.clear()
        fidelity_only = trained.cached()
        first = fidelity_only.best_fidelity(jobs, qpus)
        assert calls == [("fidelity", 8)]
        gets = _table_gets(fidelity_only, monkeypatch)
        assert fidelity_only.best_fidelity(jobs, qpus) == first
        assert len(calls) == 1 and gets == []
        assert fidelity_only.stats.hits == fidelity_only.stats.misses == 8

    def test_fidelity_fill_then_estimate_block(self, trained, fleet, monkeypatch):
        """FCFS fills the memo first (two of five jobs), ``estimate_block``
        reads it afterwards: the two jobs' entries are hits whose runtime
        alone is filled, the stored fidelity is kept, and table, values
        and counters equal a memo ``estimate_block`` filled throughout."""
        jobs = _jobs_with_circuits()
        mixed, plain = trained.cached(), trained.cached()
        early = mixed.best_fidelity(jobs[:2], fleet)
        plain.estimate_block(jobs[:2], fleet)
        calls = _count_predicts(monkeypatch)
        got = mixed.estimate_block(jobs, fleet)
        want = plain.estimate_block(jobs, fleet)
        # The mixed memo: one runtime pass for the two filled-in jobs,
        # then both models for the three missed ones.  The plain memo:
        # both models for the same three.
        assert [target for target, _ in calls] == [
            "runtime", "fidelity", "runtime", "fidelity", "runtime",
        ]
        assert best_feasible(got[0][:2], feasibility_matrix(jobs[:2], fleet)) == early
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert cache_table(mixed) == cache_table(plain)
        assert mixed.stats == plain.stats
        assert mixed.stats.hits == 2 * len(fleet)
        # And the other way round: a complete entry answers a fidelity read.
        calls.clear()
        hits = mixed.stats.hits
        feasible = feasibility_matrix(jobs, fleet)
        assert mixed.best_fidelity(jobs, fleet) == best_feasible(want[0], feasible)
        assert calls == [] and mixed.stats.hits == hits + feasible.sum()

    def test_callable_base_stores_both_halves(self, fleet):
        """A plain ``(job, qpu)`` base returns both estimates anyway, so a
        fidelity read stores both and a later full read is all hits."""
        calls = []

        def pair(job, qpu):
            calls.append(qpu.name)
            return 0.5, 7.0

        cached = CachedEstimator(pair)
        jobs = _jobs_with_circuits(widths=(3,))
        assert cached.best_fidelity(jobs, fleet) == [(0, 0.5)]
        fid, sec = cached.estimate_block(jobs, fleet)
        assert fid.tolist() == [[0.5] * len(fleet)] and sec.tolist() == [[7.0] * len(fleet)]
        assert len(calls) == len(fleet) == cached.stats.hits == cached.stats.misses

    def test_memo_hit_leaves_recency_alone(self, trained, fleet, monkeypatch):
        """A repeat answered by ``best_fidelity``'s memo counts the hits
        its lookups would have made and moves nothing, as those lookups
        move nothing: the memo's table holds the per-pair table's keys in
        the same order, and the counters agree."""
        jobs = _jobs_with_circuits(widths=(2, 4))
        memo, per_pair = trained.cached(), trained.cached()
        first = memo.best_fidelity(jobs, fleet)
        per_pair.estimate_block(jobs, fleet)
        table = cache_table(memo)
        gets = _table_gets(memo, monkeypatch)
        assert memo.best_fidelity(jobs, fleet) == first
        per_pair.estimate_block(jobs, fleet)
        assert gets == [] and cache_table(memo) == table
        assert memo.stats == per_pair.stats
        assert memo.stats.hits == memo.stats.misses == 2 * len(fleet)
        assert [key for key, _ in table] == [key for key, _ in cache_table(per_pair)]

    def test_block_wider_than_a_chunk(self, trained, monkeypatch):
        """``tenant_outage``'s cold batched-FCFS shape: ~300 jobs x 8 QPUs,
        more stacked rows than one chunk holds.  Each model scores them in
        slices of ``_CHUNK_ROWS`` rows, whatever the QPU groups' bounds."""
        qpus = fleet_of_size(8, seed=7)
        jobs = _many_jobs(300)
        self._assert_same_blocks(trained, [(jobs, qpus)])
        want = reference_block(trained, jobs, qpus)
        calls = _count_predicts(monkeypatch)
        got = trained.estimate_block(jobs, qpus)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        total = int(feasibility_matrix(jobs, qpus).sum())
        rows = models._CHUNK_ROWS
        slices = [min(rows, total - a) for a in range(0, total, rows)]
        assert len(slices) > 2
        for target in ("fidelity", "runtime"):
            assert [n for t, n in calls if t == target] == slices

    def test_one_group_wider_than_a_chunk(self, trained, monkeypatch):
        """A QPU's group is sliced like any rows, and its values are those
        of one unchunked predict over all of them."""
        qpus = fleet_of_size(8, seed=7)[:1]
        jobs = _many_jobs(700)
        self._assert_same_blocks(trained, [(jobs, qpus)])
        want = reference_block(trained, jobs, qpus)
        calls = _count_predicts(monkeypatch)
        got = trained.estimate_block(jobs, qpus)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        slices = [models._CHUNK_ROWS, len(jobs) - models._CHUNK_ROWS]
        assert calls == [(t, n) for t in ("fidelity", "runtime") for n in slices]
        calls.clear()
        monkeypatch.setattr(models, "_CHUNK_ROWS", len(jobs))
        whole = trained.estimate_block(jobs, qpus)
        assert calls == [("fidelity", 700), ("runtime", 700)]
        assert np.array_equal(got[0], whole[0]) and np.array_equal(got[1], whole[1])

    def test_empty_job_list(self, trained, fleet):
        cached = self._assert_same_blocks(trained, [([], fleet)])
        assert cached.stats.lookups == 0

    def test_at_capacity_lookups_precede_stores(self, trained, fleet):
        """``max_entries`` smaller than one block.  All lookups now come
        before all stores, so column 0's stores cannot evict the entry
        column 1 is about to hit (the column-by-column loop did); and
        occupancy never exceeds ``max_entries``."""
        jobs = _jobs_with_circuits(widths=(2, 3, 4, 5))
        qpus = [fleet[0], fleet[1]]
        stacked, reference = trained.cached(max_entries=3), trained.cached(max_entries=3)
        warmed = stacked.estimate_block(jobs[:1], qpus[1:])
        reference_cached_block(reference, jobs[:1], qpus[1:])

        occupancy = []
        put = stacked.cache.put

        def counting_put(key, value):
            put(key, value)
            occupancy.append(len(stacked.cache))

        stacked.cache.put = counting_put
        fid, sec = stacked.estimate_block(jobs, qpus)
        ref_fid, ref_sec = reference_cached_block(reference, jobs, qpus)

        assert (stacked.stats.hits, reference.stats.hits) == (1, 0)
        assert (fid[0, 1], sec[0, 1]) == (warmed[0][0, 0], warmed[1][0, 0])
        assert len(occupancy) == 7 and max(occupancy) <= 3
        # Column 0 missed on both sides in the same row group: equal bits.
        # Column 1 is only close — its predict had three rows here and
        # four in the reference (values depend, in the last ulp, on how
        # many rows share a linear stage).
        assert np.array_equal(fid[:, 0], ref_fid[:, 0])
        assert np.array_equal(sec[:, 0], ref_sec[:, 0])
        np.testing.assert_allclose(fid[:, 1], ref_fid[:, 1], rtol=1e-12)
        np.testing.assert_allclose(sec[:, 1], ref_sec[:, 1], rtol=1e-12)

    def test_no_per_job_state_beyond_the_cache_table(self, trained, fleet):
        """A stream that never repeats a key (``qonductor_fresh``'s
        shape) may grow nothing on the estimator but the bounded table;
        ``best_fidelity``'s memo, which nothing asked, stays empty."""
        cached = trained.cached(max_entries=64)
        metrics = compute_metrics(ghz_linear(4))
        for shots in range(1000, 3000):
            cached.estimate_block([QuantumJob(metrics=metrics, shots=shots)], fleet)
        assert cached.stats.misses == 2000 * len(fleet)
        assert len(cached.cache) == 64
        sized = {
            name: len(value)
            for holder in (cached, cached.base)
            for name, value in vars(holder).items()
            if isinstance(value, (dict, list, set))
        }
        assert sized == {
            "templates": len(cached.base.templates),
            "_best": 0, "_lists": 0, "_qpus": 0, "_seen": 0,
        }

    def test_uncached_block_matches_reference(self, trained, fleet, monkeypatch):
        offline = default_fleet(seed=7, names=FLEET_NAMES)
        offline[0].online = False
        for jobs, qpus in [
            (_jobs_with_circuits(), fleet),
            (_jobs_with_circuits(), offline),
            (_jobs_with_circuits(widths=(5,)), fleet_of_size(8, seed=7)),
            (_jobs_with_circuits(widths=(27,)), fleet[2:]),  # nothing feasible
            ([], fleet),
        ]:
            got = trained.estimate_block(jobs, qpus)
            want = reference_block(trained, jobs, qpus)
            assert got[0].shape == (len(jobs), len(qpus))
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
        calls = _count_predicts(monkeypatch)
        trained.estimate_block(_jobs_with_circuits(), fleet)
        assert len(calls) == 2
        trained.best_fidelity(_jobs_with_circuits(), fleet)
        assert [target for target, _ in calls[2:]] == ["fidelity"]

    def test_plans_match_reference(self, trained, monkeypatch):
        for width, kwargs in [
            (4, {}),
            (5, {"num_plans": 50}),
            (3, {"mitigations": ["none", "zne+rem"], "min_fidelity": 0.5}),
            (12, {"models": sorted(trained.templates)[:1], "num_plans": 2}),
            (200, {}),  # wider than every template: no plans
        ]:
            metrics = compute_metrics(ghz_linear(width))
            got = generate_resource_plans(
                metrics, 4000, trained.templates, trained.estimators, **kwargs
            )
            want = reference_plans(
                metrics, 4000, trained.templates, trained.estimators, **kwargs
            )
            assert got == want  # frozen dataclasses: field by field
        assert got == []
        calls = _count_predicts(monkeypatch)
        trained.generate_plans(compute_metrics(ghz_linear(4)), 4000, num_plans=50)
        assert len(calls) == 2


class TestBestFidelityOracle:
    """``CachedEstimator.best_fidelity`` against its definition:
    :func:`best_feasible` of an uncached ``estimate_block(...)[0]``.
    With two or fewer QPU lists, its answers (``==``), counters, keys
    and fidelities are, below capacity, those of a per-pair cache driven
    through the same blocks (``reference_cached_block``) and, at any
    capacity, those of an ``estimate_block`` cache, in the same order;
    with three, a program a second list misses is scored for the third
    as well, so the table holds more keys and the counters differ.  At
    any capacity and with any number of lists, every answer is the
    uncached block's (a pair's value does not depend on the block that
    scored it)."""

    @staticmethod
    def _ask(trained, cached, per_pair, jobs, qpus):
        feasible = feasibility_matrix(jobs, qpus)
        got = cached.best_fidelity(jobs, qpus)
        reference_fid, _ = reference_cached_block(per_pair, jobs, qpus)
        assert got == best_feasible(reference_fid, feasible)
        assert got == best_feasible(trained.estimate_block(jobs, qpus)[0], feasible)
        assert cached.stats == per_pair.stats
        assert {key: fid for key, (fid, _) in cache_table(cached)} == {
            key: fid for key, (fid, _) in cache_table(per_pair)
        }
        return got

    def _pair(self, trained, **kwargs):
        return trained.cached(**kwargs), trained.cached(**kwargs)

    def test_repeated_and_mixed_blocks(self, trained, fleet, monkeypatch):
        jobs = _jobs_with_circuits()
        cached, per_pair = self._pair(trained)
        self._ask(trained, cached, per_pair, jobs[:2], fleet)
        gets = _table_gets(cached, monkeypatch)
        self._ask(trained, cached, per_pair, jobs[:2], fleet)
        assert gets == []
        self._ask(trained, cached, per_pair, jobs, fleet)  # two answered, three looked up
        assert len(gets) == feasibility_matrix(jobs[2:], fleet).sum()
        self._ask(trained, cached, per_pair, jobs[::-1], fleet)
        assert len(gets) == feasibility_matrix(jobs[2:], fleet).sum()
        assert cached.stats.hits > cached.stats.misses > 0

    def test_qpu_offline_and_back(self, trained, monkeypatch):
        qpus = default_fleet(seed=7, names=FLEET_NAMES)
        jobs = _jobs_with_circuits(widths=(2, 4, 6))
        cached, per_pair = self._pair(trained)
        online = self._ask(trained, cached, per_pair, jobs, qpus)
        best = online[0][0]
        qpus[best].online = False
        offline = self._ask(trained, cached, per_pair, jobs, qpus)
        assert all(answer[0] != best for answer in offline)
        gets = _table_gets(cached, monkeypatch)
        qpus[best].online = True
        assert self._ask(trained, cached, per_pair, jobs, qpus) == online
        assert gets == []

    def test_recalibration_between_calls(self, trained, monkeypatch):
        # on_recalibration refreshes the shared estimator's templates.
        monkeypatch.setattr(trained, "templates", trained.templates)
        qpus = default_fleet(seed=7, names=FLEET_NAMES)
        jobs = _jobs_with_circuits(widths=(2, 3, 5))
        cached, per_pair = self._pair(trained)
        self._ask(trained, cached, per_pair, jobs, qpus)
        gets = _table_gets(cached, monkeypatch)
        qpus[0].recalibrate()  # no hook: the new epoch alone misses
        self._ask(trained, cached, per_pair, jobs, qpus)
        assert len(gets) == feasibility_matrix(jobs, qpus).sum()
        assert cached.stats.misses == per_pair.stats.misses == 4 * len(jobs)
        for qpu in qpus:
            qpu.recalibrate()
        cached.on_recalibration(qpus)
        per_pair.on_recalibration(qpus)
        self._ask(trained, cached, per_pair, jobs, qpus)
        self._ask(trained, cached, per_pair, jobs, qpus)
        assert len(gets) == 2 * feasibility_matrix(jobs, qpus).sum()

    def test_duplicate_keys_inside_one_block(self, trained, fleet):
        jobs = _jobs_with_circuits(widths=(3, 5, 3, 3, 5))
        cached, per_pair = self._pair(trained)
        answers = self._ask(trained, cached, per_pair, jobs, fleet)
        assert answers[0] == answers[2] == answers[3] and answers[1] == answers[4]
        assert cached.stats.misses == len(jobs) * len(fleet)
        self._ask(trained, cached, per_pair, jobs, fleet)
        assert cached.stats.hits == len(jobs) * len(fleet)

    def test_job_wider_than_every_online_qpu(self, trained, fleet):
        jobs = _jobs_with_circuits(widths=(27, 2))
        cached, per_pair = self._pair(trained)
        for qpus in (fleet[2:], fleet, [], fleet[2:]):
            answers = self._ask(trained, cached, per_pair, jobs, qpus)
            assert (answers[0] is None) == (qpus is not fleet)  # only auckland fits it
            assert (answers[1] is None) == (not qpus)

    def test_permuted_qpu_list(self, trained):
        qpus = fleet_of_size(8, seed=7)
        jobs = _jobs_with_circuits(widths=(2, 5, 6))
        cached, per_pair = self._pair(trained)
        forward = self._ask(trained, cached, per_pair, jobs, qpus)
        backward = self._ask(trained, cached, per_pair, jobs, qpus[::-1])
        # Indices follow the listing (ties go to the first listed QPU);
        # the best value does not.
        assert [f for _, f in forward] == [f for _, f in backward]
        assert forward != backward

    def test_two_shards_share_one_cache(self, trained):
        qpus = fleet_of_size(8, seed=7)
        shards = [qpus[:4], qpus[4:]]
        jobs = _jobs_with_circuits(widths=(2, 4, 5, 6))
        cached, per_pair = self._pair(trained)
        for _ in range(2):
            for shard in shards:
                for job in jobs:
                    self._ask(trained, cached, per_pair, [job], shard)
                self._ask(trained, cached, per_pair, jobs, shard)
        assert cached.stats.misses == len(jobs) * len(qpus)

    def test_three_lists_share_one_cache(self, trained, monkeypatch):
        """Once every list has asked, a program the second list misses is
        scored, in that list's fill, on the third list's QPUs too, and the
        third list's first ask is a memo hit with no table lookup (the
        first block is asked before the third list is known, so each list
        pays its own fill).  The answers are the per-pair reference's; the
        table holds every key the reference's holds, with the same value;
        each pair the model scored counts one miss."""
        qpus = fleet_of_size(9, seed=7)
        shards = [qpus[:3], qpus[3:6], qpus[6:]]
        first, *jobs = _jobs_with_circuits(widths=(3, 2, 4, 5, 6))
        cached, per_pair = self._pair(trained)
        gets = _table_gets(cached, monkeypatch)
        fidelity = trained.estimators.fidelity
        estimate_pairs = fidelity.estimate_pairs
        scored = []  # pairs per fidelity fill of ``cached``

        def counting(jobs, groups):
            scored.append(sum(len(idx) for _, idx in groups))
            return estimate_pairs(jobs, groups)

        monkeypatch.setattr(fidelity, "estimate_pairs", counting)
        for block in ([first], [jobs[0]], jobs, jobs[::-1]):
            for n, shard in enumerate(shards):
                feasible = feasibility_matrix(block, shard)
                want = best_feasible(reference_block(trained, block, shard)[0], feasible)
                reference_fid, _ = reference_cached_block(per_pair, block, shard)
                calls, fills = len(gets), len(scored)
                got = cached.best_fidelity(block, shard)
                assert got == best_feasible(reference_fid, feasible) == want
                table = {key: fid for key, (fid, _) in cache_table(cached)}
                for key, (fid, _) in cache_table(per_pair):
                    assert table[key] == fid
                assert cached.stats.misses == sum(scored)
                if n == 2 and block != [first]:  # answered by the second list's fill
                    assert len(gets) == calls and len(scored) == fills
        assert len(scored) == 3 + 2 * 2  # then a first and a second sighting, twice
        # Every list asked every program: the same pairs, in fewer fills.
        assert len(cached.cache) == sum(scored) == len(per_pair.cache)
        assert cached.stats.misses == per_pair.stats.misses

    def test_small_table_evicts_and_drops_the_memo(self, trained, fleet, monkeypatch):
        """At capacity the answers are the definition's.  A block
        whose stores evict drops the memo, so the next block looks every
        feasible pair up again, and the table and memo never outgrow
        ``max_entries``."""
        jobs = _jobs_with_circuits(widths=(2, 3, 4))
        cached = trained.cached(max_entries=5)
        occupancy = []
        put = cached.cache.put

        def counting_put(key, value):
            put(key, value)
            occupancy.append(len(cached.cache))

        monkeypatch.setattr(cached.cache, "put", counting_put)
        gets = _table_gets(cached, monkeypatch)
        evicted, answered = False, 0
        for block in (jobs, jobs[:1], jobs[:1], jobs[:1], jobs, jobs, jobs[1:]):
            feasible = feasibility_matrix(block, fleet)
            want = best_feasible(trained.estimate_block(block, fleet)[0], feasible)
            calls, generation = len(gets), cached.cache.generation
            got = cached.best_fidelity(block, fleet)
            assert got == want
            looked_up = len(gets) - calls
            if evicted:
                assert looked_up == feasible.sum()
            answered += looked_up < feasible.sum()
            evicted = cached.cache.generation != generation
            assert sum(map(len, cached._best.values())) == cached._best_size <= 5
            for known in (cached._lists, cached._qpus, cached._seen):
                assert len(known) <= 5
        assert max(occupancy) == 5 and answered

    @pytest.mark.parametrize("max_entries", [3, 5, 7, 11, 40])
    def test_capacity_keeps_the_per_block_table(self, trained, fleet, max_entries):
        """At any ``max_entries``, ``best_fidelity`` and ``estimate_block``
        driven through the same blocks (one or two QPU lists) make the
        same decisions and leave tables with the same keys and
        fidelities in the same order, and the same counters: a memo hit
        moves nothing, as the lookups it stands for move nothing, so
        both tables evict the same entries."""
        qpus = fleet_of_size(8, seed=7)
        jobs = _jobs_with_circuits()
        blocks = (jobs, jobs[:1], jobs[:2], jobs[:1], jobs, jobs[2:], jobs[::-1], jobs[:1])
        evictions = 0
        for lists in ([fleet], [qpus[:4], qpus[4:]]):
            memo, per_block = self._pair(trained, max_entries=max_entries)
            for block in blocks + blocks[::-1]:
                for shard in lists:
                    got = memo.best_fidelity(block, shard)
                    fid, _ = per_block.estimate_block(block, shard)
                    assert got == best_feasible(fid, feasibility_matrix(block, shard))
                    assert memo.stats == per_block.stats
                    assert [(key, f) for key, (f, _) in cache_table(memo)] == [
                        (key, f) for key, (f, _) in cache_table(per_block)
                    ]
            assert memo.cache.generation == per_block.cache.generation
            evictions += memo.cache.generation
        assert (evictions > 0) == (max_entries < 40)  # 40 holds every pair

    @pytest.mark.parametrize("max_entries", [200_000, 50, 13])
    def test_every_answer_is_the_uncached_one(self, max_entries):
        """Four QPU lists share one cache and ask random one- to five-job
        blocks of programs that repeat: whichever pairs filled the table,
        in which blocks, and whatever it evicted, every ``(k, fidelity)``
        is the uncached estimator's for the same block."""
        trained = trained_estimator(seed=7)
        qpus = fleet_of_size(16, seed=7)
        lists = [qpus[:4], qpus[4:8], qpus[8:12], qpus[12:]]
        pool = _many_jobs(40)
        rng = np.random.default_rng(max_entries)
        cached = trained.cached(max_entries=max_entries)
        for _ in range(150):
            shard = lists[rng.integers(len(lists))]
            block = [pool[i] for i in rng.integers(len(pool), size=rng.integers(1, 6))]
            assert cached.best_fidelity(block, shard) == trained.best_fidelity(block, shard)
        assert cached.stats.hits > 0
        assert (cached.cache.generation > 0) == (max_entries < 200_000)

    def test_memo_never_outgrows_max_entries(self, trained, monkeypatch):
        """Availability changes alone make new signatures over the same
        table entries: a full memo starts over instead of growing."""
        qpus = default_fleet(seed=7, names=FLEET_NAMES)[:2]
        jobs = _jobs_with_circuits(widths=(2, 3))
        cached, per_pair = self._pair(trained, max_entries=4)
        sizes = []
        for offline in (None, 1, 0, None, 1):
            for k, qpu in enumerate(qpus):
                qpu.online = k != offline
            self._ask(trained, cached, per_pair, jobs, qpus)
            sizes.append(sum(len(memo) for memo in cached._best.values()))
            assert sizes[-1] == cached._best_size
        assert len(cached.cache) == 4 and cached.cache.generation == 0
        assert sizes == [2, 4, 2, 4, 2]


class TestFeasibleMaskShape:
    """A mask not shaped like the block is refused by every source
    before any pair is scored."""

    SOURCES = {
        "ResourceEstimator": lambda trained: trained,
        "CachedEstimator": lambda trained: trained.cached(),
        "PairwiseEstimateSource": lambda trained: _shots_and_name,
    }

    @pytest.mark.parametrize("shape", [(2, 2), (2, 6), (4, 2), (2,)])
    @pytest.mark.parametrize("source", SOURCES)
    def test_mis_shaped_mask_is_refused(self, trained, source, shape):
        jobs = _jobs_with_circuits(widths=(2, 3))
        qpus = fleet_of_size(4, seed=7)
        scorer = self.SOURCES[source](trained)
        match = rf"{source}: .*{re.escape(str(shape))}.*\(2, 4\)"
        with pytest.raises(ValueError, match=match):
            scorer.estimate_block(jobs, qpus, np.ones(shape, dtype=bool))


def _traced_peak_mib(fn) -> float:
    """Peak bytes ``tracemalloc`` sees allocated while ``fn()`` runs, over
    what was live before, in MiB.  NumPy reports its data buffers to
    tracemalloc, and the sizes are deterministic."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


class TestTransientMemory:
    """The estimator's two batch computations allocate per chunk, not per
    batch: a stated bound on each one's tracemalloc peak."""

    def test_cold_block_of_300_jobs_by_8_qpus(self):
        """``tenant_outage``'s largest cold batched-FCFS block is 2,344
        pairs.  Scored in one pass, its expansions and scaled copies took
        ~20 MiB; in chunks of whole QPU groups ~2.2 MiB."""
        cached = trained_estimator(seed=7).cached()
        jobs, qpus = _many_jobs(300), fleet_of_size(8, seed=7)
        assert _traced_peak_mib(lambda: cached.estimate_block(jobs, qpus)) < 6.0
        assert cached.stats.misses == feasibility_matrix(jobs, qpus).sum() > 2000

    def test_degree_selection_on_the_fidelity_data(self):
        """All 800 rows expanded to 968 columns up front, beside each
        fold's copy, took ~16.6 MiB; a fold at a time, in one buffer, ~8.1 MiB."""
        ds = _cold_start_dataset("trained_estimator")
        X, y = ds.X_fidelity, ds.y_fidelity
        peak = _traced_peak_mib(lambda: polynomial_ridge_cv(X, y, (1, 2, 3), alpha=1e-3, seed=7))
        assert peak < 12.0


class TestRowInvariance:
    """A row's estimate is one value: the same bits whichever other rows
    share its ``predict``, on the benchmark's own models (``bench/child.py``
    trains these) and rows near their training rows."""

    @pytest.mark.parametrize("target, columns", [("fidelity", 152), ("runtime", 363)])
    def test_a_row_has_the_same_bits_in_any_slice(self, target, columns):
        estimator = getattr(trained_estimator(seed=7).estimators, target)
        model = estimator.model
        assert model.coef_.shape == (columns,)
        ds = _cold_start_dataset("trained_estimator")
        rows = getattr(ds, f"X_{target}")
        rng = np.random.default_rng(columns)
        X = rows[rng.permutation(len(rows))] * rng.uniform(0.98, 1.02, rows.shape)
        whole = estimator.predict(X)
        for _ in range(60):
            a, b = sorted(rng.choice(len(X) + 1, size=2, replace=False))
            assert whole[a:b].tobytes() == estimator.predict(X[a:b]).tobytes(), (a, b)
        for i in rng.choice(len(X), size=60, replace=False):
            assert whole[i] == estimator.predict(X[i : i + 1].copy())[0], i
        expanded = polynomial_transform_reference(X, estimator.degree)
        want = predict_row_reference(
            (expanded - model.mean_) / model.scale_, model.coef_, model.intercept_
        )
        np.testing.assert_allclose(model.predict(X), want, rtol=1e-12, atol=1e-12)


class TestFinalModelPins:
    """The final ridge fits of two cold starts, as literals: the selected
    degree, a sha256 of ``coef_``'s bytes and ``intercept_``.  A change to
    how training solves may move them only together with
    :class:`TestAgainstTheScipyRoute`, which bounds by how much.

    Recorded on numpy's OpenBLAS 0.3.31 (x86-64) with one BLAS thread, as
    ``bench/run.py`` trains: the final fit's LU solve (``gesv``) changes its
    last bits with the thread count, so the models are built in a child
    process with the thread count pinned."""

    SCRIPT = (
        "import hashlib\n"
        "from repro.experiments.common import trained_estimator\n"
        "from repro.orchestrator import Qonductor\n"
        "for name, est in [('trained_estimator(seed=7)', trained_estimator(seed=7)),\n"
        "                  ('Qonductor(seed=0)', Qonductor(seed=0, estimator_records=200).estimator)]:\n"
        "    for target in ('fidelity', 'runtime'):\n"
        "        model = getattr(est.estimators, target)\n"
        "        print(name, target, model.degree,\n"
        "              hashlib.sha256(model.model.coef_.tobytes()).hexdigest(),\n"
        "              model.model.intercept_.hex())\n"
    )

    PINNED = [
        "trained_estimator(seed=7) fidelity 2 "
        "584581f407399847b49c613b1f03aed3f67cdff360eba3889b802d1d2ac67e4e 0x1.33357b1364f4ep-1",
        "trained_estimator(seed=7) runtime 3 "
        "2e10e4b8ddd7d81867b19b1bac35080eced52243ef1ec3bb97f425b173602cc4 0x1.73cf75c3695e8p+1",
        "Qonductor(seed=0) fidelity 1 "
        "f06c53bc13f2d3ef8c51b3b6f933519ba316c38b89214aa9628f867ab714b4d1 0x1.1d8200739c08bp-1",
        "Qonductor(seed=0) runtime 2 "
        "c3ff30fc7d4d1955e2f0379f528d3e9eb759440dd350a95e06e24fc7af9d6e18 0x1.7fdd493773d57p+1",
    ]

    def test_final_models_are_pinned(self):
        one_thread = dict.fromkeys(
            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"
        )
        out = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            capture_output=True,
            text=True,
            check=True,
            env={
                **os.environ,
                **one_thread,
                "PYTHONPATH": str(Path(repro.__file__).parent.parent),
            },
        )
        assert out.stdout.splitlines() == self.PINNED


#: (fleet, records, seed) of the training sets of ``trained_estimator(seed=7)``
#: and ``Qonductor(seed=0, estimator_records=200)``.
_COLD_STARTS = {
    "trained_estimator": (lambda: make_fleet(seed=7), 800, 7),
    "Qonductor": (lambda: default_fleet(seed=0), 200, 0),
}


@functools.cache
def _cold_start_dataset(name):
    fleet_of, records, seed = _COLD_STARTS[name]
    return generate_dataset(
        fleet_of(), num_records=records, execution_model=ExecutionModel(seed=seed), seed=seed
    )


class TestAgainstTheScipyRoute:
    """Both cold starts' training sets through ``_select_and_fit`` against
    the ``scipy.linalg`` route it replaced (``helpers/reference_ridge.py``):
    the same degrees, CV R² within 1e-9 relative, training-set predictions
    within 1e-10 absolute.  Runtime is fitted on ``log1p`` seconds, as
    training does."""

    @pytest.mark.parametrize("name", list(_COLD_STARTS))
    def test_cold_start_datasets(self, name):
        ds = _cold_start_dataset(name)
        assert_numpy_route_matches(ds.X_fidelity, ds.y_fidelity)
        assert_numpy_route_matches(ds.X_runtime, np.log1p(ds.y_runtime))


class TestWholeDatasetExpansion:
    """Both cold starts' degree selection, as training runs it, against the
    kernel that expanded every row up front
    (``helpers/reference_cv.whole_dataset_ridge_cv``): all six CV scores
    ``float.hex``-equal."""

    @pytest.mark.parametrize("name", list(_COLD_STARTS))
    def test_cold_start_datasets(self, name):
        ds = _cold_start_dataset(name)
        seed = _COLD_STARTS[name][2]
        for X, y in [(ds.X_fidelity, ds.y_fidelity), (ds.X_runtime, np.log1p(ds.y_runtime))]:
            got = polynomial_ridge_cv(X, y, (1, 2, 3), alpha=1e-3, seed=seed)
            want = whole_dataset_ridge_cv(X, y, (1, 2, 3), alpha=1e-3, seed=seed)
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]
