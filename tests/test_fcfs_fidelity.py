"""The FCFS baselines against a trained, cached estimator.

FCFS sends each job to the highest-fidelity QPU that fits, so it reads
one of the two estimates the §6 estimator produces, through
``fidelity_block``.  Two runs are pinned as sha256 literals of
``deterministic_state()``, estimate-cache counters included: a policy
that asks ``estimate_block`` for both estimates and keeps the fidelity
yields the same digests.
"""

import hashlib

import pytest

from helpers.determinism import fake_estimate, make_job, run_sharded
from repro.cloud import AdmissionController, abusive_mix, flash_outage
from repro.estimator import CachedEstimator, RegressionEstimator
from repro.experiments.common import trained_estimator
from repro.scheduler import BatchedFCFSPolicy, FCFSPolicy

#: ``run -> sha256`` of ``deterministic_state()`` with a cold
#: ``trained_estimator(seed=7).cached()``.
FCFS_PINS = {
    "per_arrival_recalibrated":
        "8369a17f1f4e6e15ecdf0a515957acbdebecc675dceb9fb72b86ad72a4c4ba7e",
    "batched_tenants_outage":
        "358455e521e74c57355085353798e3ce73a5f855d2306f7744d720d707a5b080",
}


def _run(name):
    cached = trained_estimator(seed=7).cached()
    if name == "per_arrival_recalibrated":
        return run_sharded(FCFSPolicy(cached), "serial", num_shards=2, recal=350.0, pool=24)
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
    digest = hashlib.sha256(repr(metrics.deterministic_state()).encode()).hexdigest()
    assert digest == FCFS_PINS[name]


def test_per_arrival_run_never_runs_the_runtime_model(monkeypatch):
    """One fidelity predict per block with a miss, no runtime predict."""
    predicts = []
    predict = RegressionEstimator.predict

    def counting_predict(self, X, segments=None):
        predicts.append(self.target)
        return predict(self, X, segments)

    miss_blocks = []
    fidelity_block = CachedEstimator.fidelity_block

    def counting_block(self, jobs, qpus, feasible=None):
        misses = self.stats.misses
        fid = fidelity_block(self, jobs, qpus, feasible)
        miss_blocks.append(self.stats.misses > misses)
        return fid

    monkeypatch.setattr(RegressionEstimator, "predict", counting_predict)
    monkeypatch.setattr(CachedEstimator, "fidelity_block", counting_block)
    metrics = run_sharded(
        FCFSPolicy(trained_estimator(seed=7).cached()), "serial", num_shards=2, pool=24
    )
    assert predicts.count("runtime") == 0
    assert predicts.count("fidelity") == sum(miss_blocks) > 0
    assert len(miss_blocks) == metrics.scheduling_cycles > sum(miss_blocks)


def test_fcfs_over_no_qpus_leaves_every_job_unschedulable():
    jobs = [make_job(2), make_job(5)]
    assert FCFSPolicy(fake_estimate).assign(jobs, []) == [(job, None) for job in jobs]
    schedule = BatchedFCFSPolicy(fake_estimate).schedule(jobs, [])
    assert schedule.decisions == [] and schedule.unschedulable == jobs
