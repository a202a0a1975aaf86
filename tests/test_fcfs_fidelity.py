"""The FCFS baselines against a trained, cached estimator.

FCFS sends each job to the highest-fidelity QPU that fits, so it reads
one of the two estimates the §6 estimator produces, through
``best_fidelity``.  Three runs are pinned as sha256 literals of
``deterministic_state()``, estimate-cache counters included: a policy
that asks ``estimate_block`` for both estimates and takes the first
maximum of the fidelity yields the same digests.  Three per-arrival runs
are also pinned through ``decision_state()``, which leaves out how
cycles were grouped into engine batches: every decision, dispatch and
completion, whichever way the engine drives a one-job cycle.
"""

import hashlib

import pytest

from helpers.determinism import decision_state, fake_estimate, make_job, run_sharded
from repro.cloud import (
    AdmissionController,
    ThresholdRebalancePolicy,
    abusive_mix,
    flash_outage,
)
from repro.estimator import CachedEstimator, EstimateCache, RegressionEstimator
from repro.estimator.source import feasibility_matrix
from repro.experiments.common import trained_estimator
from repro.scheduler import BatchedFCFSPolicy, FCFSPolicy

#: ``run -> sha256`` of ``deterministic_state()`` with a cold
#: ``trained_estimator(seed=7).cached()``.
FCFS_PINS = {
    "per_arrival_recalibrated":
        "4258581805a918749b74be3e0de497b553847fc623a16385b6b718e0e97f05f3",
    "batched_tenants_outage":
        "358455e521e74c57355085353798e3ce73a5f855d2306f7744d720d707a5b080",
    "batched_tenants_reject_rebalanced":
        "366096be6cdf31e70b2e58e58634d5a7a5dd25513f49c049a5fcf62e066f44f3",
}


def _run(name):
    cached = trained_estimator(seed=7).cached()
    if name == "per_arrival_recalibrated":
        return run_sharded(
            FCFSPolicy(cached), "serial", num_shards=2, recal=350.0, pool=24, trigger=None
        )
    if name == "batched_tenants_reject_rebalanced":
        # The reject arm of the queue quota, tenant-aware migration
        # between three shards and one cache shared through two
        # recalibrations.
        return run_sharded(
            BatchedFCFSPolicy(cached),
            "serial",
            num_shards=3,
            duration=600.0,
            tenants=abusive_mix(abuser_share=0.5, abuser_queue_quota=10),
            admission=AdmissionController(quota_action="reject"),
            rebalance=ThresholdRebalancePolicy(
                min_gap=8, interval_seconds=30.0, tenant_aware=True
            ),
            availability=flash_outage(["qpu01", "qpu04"], start=200.0, duration_seconds=200.0),
            recal=250.0,
            trigger=lambda i: (10_000, 60.0),
            pool=24,
        )
    return run_sharded(
        BatchedFCFSPolicy(cached),
        "serial",
        num_shards=2,
        duration=600.0,
        tenants=abusive_mix(abuser_share=0.5, abuser_queue_quota=10),
        admission=AdmissionController(quota_action="degrade"),
        availability=flash_outage(["qpu01", "qpu04"], start=200.0, duration_seconds=200.0),
        trigger=lambda i: (10_000, 60.0),
        pool=24,
    )


@pytest.mark.parametrize("name", FCFS_PINS)
def test_fcfs_run_matches_pinned_digest(name):
    metrics = _run(name)
    assert metrics.estimate_cache["misses"] > 0 and metrics.estimate_cache["hits"] > 0
    if name == "batched_tenants_reject_rebalanced":
        assert metrics.admission_rejected > 0 and metrics.jobs_migrated > 0
        assert metrics.estimate_cache["invalidations"] == 2
    digest = hashlib.sha256(repr(metrics.deterministic_state()).encode()).hexdigest()
    assert digest == FCFS_PINS[name]


#: ``run -> sha256`` of ``decision_state()`` of per-arrival FCFS runs
#: shaped like the ``fcfs_pool`` benchmark (a resubmission pool, a
#: mid-run recalibration, least-loaded routing): two load seeds over the
#: synthetic scorer, and the trained run pinned whole above.
DECISION_PINS = {
    "fake_load_seed_4":
        "78e44d010dd1af545ebf3dd8dc7e00acbd47b661aacc9eff76c5ba9e2d852ab1",
    "fake_load_seed_9":
        "7d9e2bf7b6de7048db23a0f2ca0734f035132cfba381d2edd0da5207352683cc",
    "per_arrival_recalibrated":
        "3239fa7c92e66d7402361f9edb6cee8ff364595dbb84d2871dd857df5d8d70f3",
}


@pytest.mark.parametrize("name", DECISION_PINS)
def test_per_arrival_decisions_match_pinned_digest(name):
    if name == "per_arrival_recalibrated":
        metrics = _run(name)
    else:
        metrics = run_sharded(
            FCFSPolicy(fake_estimate), "serial", trigger=None,
            load_seed=int(name.rsplit("_", 1)[1]), pool=24, recal=350.0,
        )
    assert metrics.dispatched_jobs > 1000
    digest = hashlib.sha256(repr(decision_state(metrics)).encode()).hexdigest()
    assert digest == DECISION_PINS[name]


def test_per_arrival_run_never_runs_the_runtime_model(monkeypatch):
    """One fidelity predict per block with a miss, no runtime predict.  A
    block whose program the cache already placed on the same QPU list,
    under the same calibrations and availability and with no
    invalidation since, makes no table lookup; every block counts one
    hit or miss per feasible pair, as per-pair lookups would."""
    predicts = []
    predict = RegressionEstimator.predict

    def counting_predict(self, X, segments=None):
        predicts.append(self.target)
        return predict(self, X, segments)

    lookups = []
    get = EstimateCache.get

    def counting_get(self, key):
        lookups.append(key)
        return get(self, key)

    blocks = []  # (repeat, table lookups, any miss) per best_fidelity call
    placed = set()
    invalidations = [0]
    best_fidelity = CachedEstimator.best_fidelity

    def counting_best(self, jobs, qpus):
        if self.stats.invalidations != invalidations[0]:
            invalidations[0] = self.stats.invalidations
            placed.clear()
        (job,) = jobs  # per arrival: one-job cycles
        place = (
            job.metrics.fingerprint, job.shots, job.mitigation,
            tuple((q.calibration.epoch, q.online) for q in qpus),
        )
        before = (len(lookups), self.stats.hits, self.stats.misses)
        answer = best_fidelity(self, jobs, qpus)
        blocks.append((place in placed, len(lookups) - before[0], self.stats.misses > before[2]))
        counted = self.stats.hits + self.stats.misses - before[1] - before[2]
        assert counted == feasibility_matrix(jobs, qpus).sum()
        if answer[0] is not None:
            placed.add(place)
        return answer

    monkeypatch.setattr(RegressionEstimator, "predict", counting_predict)
    monkeypatch.setattr(EstimateCache, "get", counting_get)
    monkeypatch.setattr(CachedEstimator, "best_fidelity", counting_best)
    cached = trained_estimator(seed=7).cached()
    metrics = run_sharded(
        FCFSPolicy(cached), "serial", num_shards=2, pool=24, trigger=None,
    )
    missed = sum(miss for _, _, miss in blocks)
    assert predicts.count("runtime") == 0
    assert predicts.count("fidelity") == missed > 0
    assert len(blocks) == metrics.scheduling_cycles > missed
    assert len(cached.cache) < cached.cache.max_entries
    repeats = [n for repeat, n, _ in blocks if repeat]
    assert repeats and not any(repeats)
    assert all(n > 0 for repeat, n, _ in blocks if not repeat)


def test_fcfs_over_no_qpus_leaves_every_job_unschedulable():
    jobs = [make_job(2), make_job(5)]
    assert FCFSPolicy(fake_estimate).assign(jobs, []) == [(job, None) for job in jobs]
    schedule = BatchedFCFSPolicy(fake_estimate).schedule(jobs, [])
    assert schedule.decisions == [] and schedule.unschedulable == jobs
