"""The FCFS baselines against a trained, cached estimator.

FCFS sends each job to the highest-fidelity QPU that fits, so it reads
one of the two estimates the §6 estimator produces, through
``best_fidelity``.  Three runs are pinned as sha256 literals of
``deterministic_state()``, estimate-cache counters included, and again
without those counters.  Where two or fewer QPU lists share the cache, a
policy that asks ``estimate_block`` for both estimates and takes the
first maximum of the fidelity yields the same full digests; with three
or more, a program a second list misses is scored for every known list
at once, so only the counters differ.  Three per-arrival runs are also
pinned through ``decision_state()``, which leaves out how cycles were
grouped into engine batches: every decision, dispatch and completion,
whichever way the engine drives a one-job cycle.
"""

import hashlib
from collections import Counter

import pytest

from helpers.determinism import decision_state, fake_estimate, make_job, run_sharded
from repro.cloud import (
    AdmissionController,
    ThresholdRebalancePolicy,
    abusive_mix,
    flash_outage,
)
from repro.estimator import CachedEstimator, EstimateCache, RegressionEstimator
from repro.estimator.cache import job_key
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
        "be13520319e104ca8add0a3ef65321ce1b3fc8ba2418931e7643b21bae939e9a",
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


def _uncounted_state(metrics) -> dict:
    """``deterministic_state()`` without the estimate-cache counters:
    every decision, dispatch and completion, however many table lookups
    and model fills the estimate source made to reach them."""
    state = metrics.deterministic_state()
    del state["estimate_cache"]
    return state


#: ``run -> sha256`` of :func:`_uncounted_state` of the ``FCFS_PINS``
#: runs: what a change to how the cache counts must leave alone.
FCFS_UNCOUNTED_PINS = {
    "per_arrival_recalibrated":
        "d896dc68908f8920943b0dca790f9ed362de196555552aa86fffbafb666a0a13",
    "batched_tenants_outage":
        "653b64e601816aa9a54d826fdbcf1e09fd884ff3bf7e0a944c24ad4aaf1b50af",
    "batched_tenants_reject_rebalanced":
        "7122d8977a652de87ece361810cd43cc86c11ca7506e1ce69b8bcd26c3a5316a",
}


@pytest.mark.parametrize("name", FCFS_UNCOUNTED_PINS)
def test_fcfs_run_without_counters_matches_pinned_digest(name):
    digest = hashlib.sha256(repr(_uncounted_state(_run(name))).encode()).hexdigest()
    assert digest == FCFS_UNCOUNTED_PINS[name]


def test_eight_shard_pool_decides_as_the_uncached_estimator(monkeypatch):
    """``fcfs_pool``'s shape in miniature: per-arrival FCFS over eight
    shards of a shared cache, a resubmission pool and a mid-run
    recalibration.  The cached source decides every job as the uncached
    estimator does; a one-job block fills one row per QPU segment, so
    even the fidelity bits agree."""
    trained = trained_estimator(seed=7)
    # on_recalibration refreshes the shared estimator's templates.
    monkeypatch.setattr(trained, "templates", trained.templates)
    runs = [
        run_sharded(
            FCFSPolicy(source), "serial", num_shards=8, fleet_size=16,
            pool=24, recal=350.0, trigger=None,
        )
        for source in (trained.cached(), trained)
    ]
    cached, uncached = runs
    assert cached.estimate_cache["invalidations"] == 1
    assert cached.estimate_cache["hits"] > cached.estimate_cache["misses"] > 0
    assert uncached.estimate_cache == {} and uncached.dispatched_jobs > 1000
    assert _uncounted_state(cached) == _uncounted_state(uncached)


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


def _count_scored(monkeypatch, events=None) -> list:
    """Record, per fidelity fill, the ``(job key, calibration epoch)`` of
    every pair the model scores; each fill is also appended to
    ``events``, when given, as ``("fill", pairs)``."""
    fills = []
    estimate_pairs = RegressionEstimator.estimate_pairs

    def counting(self, jobs, groups):
        if self.target == "fidelity":
            keys = [(m.fingerprint, shots, mitigation) for m, shots, mitigation in jobs]
            fills.append([(keys[i], cal.epoch) for cal, idx in groups for i in idx])
            if events is not None:
                events.append(("fill", fills[-1]))
        return estimate_pairs(self, jobs, groups)

    monkeypatch.setattr(RegressionEstimator, "estimate_pairs", counting)
    return fills


def test_fresh_programs_are_scored_once_by_the_list_that_asked(monkeypatch):
    """A stream that never repeats a program, over three shards: each
    program is missed by one QPU list only, so nothing is scored beyond
    that list's feasible pairs, and every scored pair is one miss."""
    fills = _count_scored(monkeypatch)
    asked = []  # (job key, feasible pairs) per job, in asking order
    best_fidelity = CachedEstimator.best_fidelity

    def recording(self, jobs, qpus):
        feasible = feasibility_matrix(jobs, qpus).sum(axis=1).tolist()
        asked.extend((job_key(job), n) for job, n in zip(jobs, feasible))
        return best_fidelity(self, jobs, qpus)

    monkeypatch.setattr(CachedEstimator, "best_fidelity", recording)
    cached = trained_estimator(seed=7).cached()
    metrics = run_sharded(FCFSPolicy(cached), "serial", num_shards=3, trigger=None)
    keys = [key for key, _ in asked]
    assert len(set(keys)) == len(keys) == metrics.scheduling_cycles > 300  # fresh
    assert cached.stats.misses == sum(n for _, n in asked) == sum(map(len, fills))
    assert cached.stats.hits == 0 and len(fills) == len(keys)


def test_resubmitted_program_is_scored_in_two_blocks_per_epoch(monkeypatch):
    """Eight shards share one cache over a resubmission pool with a
    mid-run recalibration.  Within a calibration cycle a program is
    scored when the first QPU list misses it, and once more, for every
    QPU the cache knows, when a second does; lists that asked before are
    answered from the memo.  The cache learns QPUs only from the lists it
    is asked about, so a list asking for the first time in the cycle
    after a program's first fill may cost that program one fill more."""
    events = []  # ("list", cycle) on a list's first ask in a cycle; ("fill", pairs)
    fills = _count_scored(monkeypatch, events)
    best_fidelity = CachedEstimator.best_fidelity

    def recording(self, jobs, qpus):
        event = ("list", (qpus[0].calibration.cycle, tuple(q.name for q in qpus)))
        if event not in events:
            events.append(event)
        return best_fidelity(self, jobs, qpus)

    monkeypatch.setattr(CachedEstimator, "best_fidelity", recording)
    cached = trained_estimator(seed=7).cached()
    run_sharded(
        FCFSPolicy(cached), "serial", num_shards=8, fleet_size=16,
        pool=24, recal=350.0, trigger=None,
    )
    blocks = Counter()  # (job key, cycle) -> fidelity fills scoring it
    late = Counter()  # (job key, cycle) -> lists first asking after its first fill
    for kind, payload in events:
        if kind == "list":
            cycle = payload[0]
            late.update(program for program in blocks if program[1] == cycle)
        else:
            blocks.update(list(dict.fromkeys((key, epoch[1]) for key, epoch in payload)))
    assert all(n <= 2 + late[program] for program, n in blocks.items())
    assert max(n for program, n in blocks.items() if not late[program]) == 2
    assert sorted(dict.fromkeys(cycle for _, cycle in blocks)) == [0, 1]
    assert cached.stats.invalidations == 1
    pairs = [pair for fill in fills for pair in fill]
    assert cached.stats.misses == len(pairs) == len(set(pairs))


def test_fcfs_over_no_qpus_leaves_every_job_unschedulable():
    jobs = [make_job(2), make_job(5)]
    assert FCFSPolicy(fake_estimate).assign(jobs, []) == [(job, None) for job in jobs]
    schedule = BatchedFCFSPolicy(fake_estimate).schedule(jobs, [])
    assert schedule.decisions == [] and schedule.unschedulable == jobs
