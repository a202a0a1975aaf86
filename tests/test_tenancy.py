"""Multi-tenancy tests: contracts, the admission front door, tier-weighted
scheduling, tenant-aware fleet behavior — and the load-bearing guarantee
that **tenancy off changes nothing**: runs without tenants/admission are
bit-identical whether or not the tenancy machinery is configured, for
both the FCFS baseline and the Qonductor scheduler on multi-shard fleets
(via the shared determinism harness).
"""

import hashlib
import itertools

import numpy as np
import pytest

from helpers.determinism import (
    assert_runs_identical,
    fake_estimate,
    make_job,
    make_shards,
    run_sharded,
)
from repro.cloud import (
    BEST_EFFORT_TIER,
    AdmissionController,
    LeastLoadedBalancer,
    LoadGenerator,
    Tenant,
    TenantShare,
    ThresholdRebalancePolicy,
    abusive_mix,
    effective_tier,
    jain_index,
    tier_sort,
)
from repro.scheduler import BatchedFCFSPolicy, QonductorScheduler


class TestTenantContracts:
    def test_validation(self):
        with pytest.raises(ValueError):
            Tenant("x", tier=-1)
        with pytest.raises(ValueError):
            Tenant("x", rate_limit_per_hour=0.0)
        with pytest.raises(ValueError):
            Tenant("x", burst=0)
        with pytest.raises(ValueError):
            Tenant("x", queue_quota=0)
        with pytest.raises(ValueError):
            TenantShare(Tenant("x"), share=0.0)
        with pytest.raises(ValueError):
            AdmissionController(quota_action="drop")

    @pytest.mark.parametrize(
        "share", [float("nan"), float("inf"), -float("inf"), 0.0, -0.5]
    )
    def test_share_must_be_finite_and_positive(self, share):
        """``nan <= 0`` is false: a NaN or infinite share used to
        construct and be refused only by ``Generator.choice``, at the
        first ``next()`` inside ``CloudSimulator.run``."""
        with pytest.raises(ValueError, match="'acme'"):
            TenantShare(Tenant("acme"), share)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rate_limit_per_hour", float("nan")),
            ("rate_limit_per_hour", float("inf")),
            ("burst", float("nan")),
            ("queue_quota", float("nan")),
            ("slo_jct_seconds", float("nan")),
            ("slo_jct_seconds", float("inf")),
            ("slo_jct_seconds", 0.0),
            ("slo_jct_seconds", -5.0),
            ("tier", float("nan")),
        ],
    )
    def test_contract_values_must_be_finite(self, field, value):
        """Regression: each of these constructed and switched off what it
        configures — ``min(burst, nan)`` kept the token bucket full, a NaN
        SLO never counted a violation and a negative one counted every
        job.  ``None`` is the spelling for "no limit"."""
        kwargs = {"rate_limit_per_hour": 10.0, field: value}
        with pytest.raises(ValueError, match=f"'acme': {field} .*{value!r}"):
            Tenant("acme", **kwargs)

    @pytest.mark.parametrize("abuser_share", [0.3, 0.5])
    def test_abusive_mix_shape(self, abuser_share):
        mix = abusive_mix(abuser_share=abuser_share)
        normal = (1.0 - abuser_share) / 3
        assert [s.share for s in mix] == [normal, normal, normal, abuser_share]
        assert len(mix) == 4
        ids = [s.tenant.tenant_id for s in mix]
        assert ids == ["tenant-0", "tenant-1", "tenant-2", "abuser"]
        assert mix[0].tenant.tier == 0  # one premium tenant
        assert mix[-1].tenant.tier == 2
        assert sum(s.share for s in mix) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            abusive_mix(abuser_share=1.0)


#: sha256 of the first 5,000 arrivals' tenant ids, recorded at a263da2
#: (tenants drawn with ``Generator.choice(n, p=p)``) and not re-recorded.
_TENANT_MIXES = {
    "abusive": abusive_mix(),
    "two": (
        TenantShare(Tenant("big"), 0.9),
        TenantShare(Tenant("small"), 0.1),
    ),
    "single": (TenantShare(Tenant("only"), 1.0),),
}
TENANT_STREAM_PINS = {
    ("abusive", 0):
        "f24fb20bcd19bab4182c8cae42b58fbe7fa6f2538886163635b341787c635f91",
    ("abusive", 1):
        "b25689a6055b2562b5da3d5acc5be96da322314cc1dbc789f4bf52d8e3deba96",
    ("abusive", 3000):
        "52e2782e2427df55d51905ac8c2c5253916865fdb538706ba5f9a6e3a3ea6636",
    ("two", 0):
        "e6ffde83b75c2c3156202f4ae7a1494f8f65c8f85fc2336d68a3b893891a03b4",
    ("two", 1):
        "75e007662c60d6f9f63aa525029b42142b71f2757feea1d576c3b8dee678db1f",
    ("two", 3000):
        "a8cbe00a5579e57bef8cd1ee962b886cc35832478c86b07afb2d7483b0426e97",
    ("single", 0):
        "6ad9c1585028780616a1ab618eff664e585e301a0c9bf8cac3ddc4053b499987",
    ("single", 1):
        "6ad9c1585028780616a1ab618eff664e585e301a0c9bf8cac3ddc4053b499987",
    ("single", 3000):
        "6ad9c1585028780616a1ab618eff664e585e301a0c9bf8cac3ddc4053b499987",
}


def _tenant_stream(mix, seed, count):
    gen = LoadGenerator(
        mean_rate_per_hour=200_000.0,
        diurnal=False,
        circuit_pool_size=4,
        tenants=mix,
        seed=seed,
    )
    return [
        app.tenant.tenant_id
        for app in itertools.islice(gen.iter_arrivals(1e9), count)
    ]


class TestTenantStream:
    @pytest.mark.parametrize(
        "cell", TENANT_STREAM_PINS, ids=lambda c: f"{c[0]}-{c[1]}"
    )
    def test_matches_the_pinned_stream(self, cell):
        name, seed = cell
        ids = _tenant_stream(_TENANT_MIXES[name], seed, 5000)
        digest = hashlib.sha256(",".join(ids).encode()).hexdigest()
        assert digest == TENANT_STREAM_PINS[cell]

    def test_is_the_stream_generator_choice_draws(self):
        mix = abusive_mix(abuser_share=0.3)
        shares = np.array([t.share for t in mix], dtype=float)
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=(9, 0x7E4A47))
        )
        want = [
            mix[int(rng.choice(len(mix), p=shares / shares.sum()))]
            .tenant.tenant_id
            for _ in range(20_000)
        ]
        assert _tenant_stream(mix, 9, 20_000) == want

    def test_block_picks_are_the_per_call_picks(self):
        """3,000 picks, several blocks of them, against one
        ``searchsorted(rng.random())`` per arrival on the substream."""
        mix = abusive_mix(abuser_share=0.3)
        shares = np.array([t.share for t in mix], dtype=float)
        cdf = (shares / shares.sum()).cumsum()
        cdf /= cdf[-1]
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=(9, 0x7E4A47))
        )
        want = [
            mix[cdf.searchsorted(rng.random(), side="right")].tenant.tenant_id
            for _ in range(3000)
        ]
        assert len(set(want)) == len(mix)
        assert _tenant_stream(mix, 9, 3000) == want


class TestAdmissionController:
    def _tenant_job(self, tenant):
        return make_job(5, tenant=tenant)

    def _shards(self):
        return make_shards([["auckland"], ["hanoi"]])

    def test_untenanted_bypasses(self):
        ctrl = AdmissionController()
        decision = ctrl.admit(make_job(5), 0.0, self._shards())
        assert decision.admitted and decision.action == "admit"

    def test_rate_limit_burst_then_refill(self):
        tenant = Tenant("t", rate_limit_per_hour=3600.0, burst=3)
        ctrl = AdmissionController()
        shards = self._shards()
        # The bucket starts full: the first `burst` arrivals pass.
        for _ in range(3):
            assert ctrl.admit(self._tenant_job(tenant), 0.0, shards).admitted
        rejected = ctrl.admit(self._tenant_job(tenant), 0.0, shards)
        assert not rejected.admitted and rejected.reason == "rate_limit"
        # 3600/h = 1 token/s: two seconds later two arrivals fit again.
        assert ctrl.admit(self._tenant_job(tenant), 2.0, shards).admitted
        assert ctrl.admit(self._tenant_job(tenant), 2.0, shards).admitted
        assert not ctrl.admit(self._tenant_job(tenant), 2.0, shards).admitted

    def test_rate_limit_bucket_never_exceeds_burst(self):
        tenant = Tenant("t", rate_limit_per_hour=3600.0, burst=2)
        ctrl = AdmissionController()
        shards = self._shards()
        assert ctrl.admit(self._tenant_job(tenant), 0.0, shards).admitted
        # A long quiet spell refills to `burst`, not beyond.
        for _ in range(2):
            assert ctrl.admit(self._tenant_job(tenant), 10_000.0, shards).admitted
        assert not ctrl.admit(self._tenant_job(tenant), 10_000.0, shards).admitted

    def test_queue_quota_degrade_and_reject(self):
        tenant = Tenant("t", queue_quota=2)
        shards = self._shards()
        jobs = [self._tenant_job(tenant) for _ in range(3)]
        degrade = AdmissionController(quota_action="degrade")
        for shard, job in zip(shards, jobs[:2]):
            assert degrade.admit(job, 0.0, shards).action == "admit"
            shard.enqueue(job)
        # Other tenants' jobs and untenanted ones fill no quota of "t".
        shards[0].enqueue(self._tenant_job(Tenant("other")))
        shards[1].enqueue(make_job(5))
        # One job of "t" on each shard: two fleet-wide, the quota.
        over = degrade.admit(jobs[2], 0.0, shards)
        assert over.admitted and over.action == "degrade"
        assert over.reason == "queue_quota"

        reject = AdmissionController(quota_action="reject")
        assert not reject.admit(jobs[2], 0.0, shards).admitted
        # A cycle taking a queue frees quota ...
        taken = shards[0].take_all()
        assert reject.admit(jobs[2], 0.0, shards).admitted
        # ... a job the cycle puts back still counts ...
        shards[0].requeue_front(taken)
        assert not reject.admit(jobs[2], 0.0, shards).admitted
        # ... and so does one migrated to the other shard.
        shards[0].move_to(0, shards[1])
        assert [s.tenant_pending("t") for s in shards] == [0, 2]
        assert not reject.admit(jobs[2], 0.0, shards).admitted

    def test_depth_is_read_only_for_a_quota_past_the_rate_limit(self):
        class Unread:
            def __iter__(self):
                raise AssertionError("the shards were read")

        ctrl = AdmissionController()
        assert ctrl.admit(self._tenant_job(Tenant("free")), 0.0, Unread()).admitted
        limited = Tenant("t", rate_limit_per_hour=3600.0, burst=1, queue_quota=5)
        assert ctrl.admit(self._tenant_job(limited), 0.0, self._shards()).admitted
        rejected = ctrl.admit(self._tenant_job(limited), 0.0, Unread())
        assert rejected.reason == "rate_limit"


class TestTierHelpers:
    def test_tier_sort_untenanted_is_same_object(self):
        jobs = [make_job(5) for _ in range(4)]
        assert tier_sort(jobs) is jobs  # provably untouched path

    def test_tier_sort_stable_by_tier(self):
        gold, silver = Tenant("gold", tier=0), Tenant("silver", tier=1)
        j0 = make_job(5, tenant=silver)
        j1 = make_job(5, tenant=gold)
        j2 = make_job(5, tenant=silver)
        j3 = make_job(5, tenant=gold)
        j4 = make_job(5)  # untenanted -> best effort
        j5 = make_job(5, tenant=gold)
        j5.best_effort = True  # degraded: behind every contracted tier
        ordered = tier_sort([j0, j1, j2, j3, j4, j5])
        assert ordered == [j1, j3, j0, j2, j4, j5]
        assert effective_tier(j1) == 0
        assert effective_tier(j4) == BEST_EFFORT_TIER
        assert effective_tier(j5) == BEST_EFFORT_TIER

    def test_jain_index(self):
        assert jain_index([]) == 1.0
        assert jain_index([0.0, 0.0]) == 1.0
        assert jain_index([3.0, 3.0, 3.0]) == pytest.approx(1.0)
        # One tenant holds everything -> 1/n.
        assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)


class TestTenantAwareFleet:
    def test_balancer_spreads_same_tenant(self):
        """A tenant's burst fans out: the shard already holding its jobs
        looks more loaded to the next job of the same tenant."""
        noisy, quiet = Tenant("noisy"), Tenant("quiet")
        shards = make_shards(
            [["auckland"], ["hanoi"]],
            policy=BatchedFCFSPolicy(fake_estimate),
        )
        shards[0].pending = [make_job(5, tenant=noisy) for _ in range(2)]
        shards[1].pending = [make_job(5, tenant=quiet) for _ in range(3)]
        balancer = LeastLoadedBalancer()
        # Untenanted and quiet-tenant jobs go to the shorter queue...
        assert balancer.route(make_job(5), shards, 0.0).shard_id == 0
        # ...but the noisy tenant's next job spreads to shard 1
        # (2 pending + 2 same-tenant > 3 pending + 0 same-tenant).
        assert (
            balancer.route(make_job(5, tenant=noisy), shards, 0.0).shard_id
            == 1
        )

    def test_rebalancer_drains_dominant_tenant_first(self):
        noisy, quiet = Tenant("noisy"), Tenant("quiet")
        shards = make_shards(
            [["auckland"], ["hanoi"]],
            policy=BatchedFCFSPolicy(fake_estimate),
        )
        queue = []
        for i in range(8):
            tenant = quiet if i < 2 else noisy  # noisy dominates 6:2
            queue.append(make_job(5, tenant=tenant, arrival_time=float(i)))
        shards[0].pending = list(queue)
        moves = ThresholdRebalancePolicy(
            min_gap=4, tenant_aware=True
        ).rebalance(shards, 0.0)
        # Gap 8 closes to 5/3: three moves, every one from the noisy
        # tenant even though quiet jobs sit at the head of the queue.
        assert len(moves) == 3
        assert all(m.job.tenant_id == "noisy" for m in moves)
        # Quiet jobs kept their place at the front of the source queue.
        assert shards[0].pending[:2] == queue[:2]
        # Migrated jobs delivered in arrival order.
        arrivals = [j.arrival_time for j in shards[1].pending]
        assert arrivals == sorted(arrivals)

    def test_untenanted_queue_ignores_tenant_aware_flag(self):
        shards_a = make_shards(
            [["auckland"], ["hanoi"]],
            policy=BatchedFCFSPolicy(fake_estimate),
        )
        shards_b = make_shards(
            [["auckland"], ["hanoi"]],
            policy=BatchedFCFSPolicy(fake_estimate),
        )
        queue = [make_job(5, arrival_time=float(i)) for i in range(9)]
        shards_a[0].pending = list(queue)
        shards_b[0].pending = list(queue)
        plain = ThresholdRebalancePolicy(min_gap=4).rebalance(shards_a, 0.0)
        aware = ThresholdRebalancePolicy(
            min_gap=4, tenant_aware=True
        ).rebalance(shards_b, 0.0)
        assert [m.job.job_id for m in plain] == [m.job.job_id for m in aware]
        assert [j.job_id for j in shards_a[0].pending] == [
            j.job_id for j in shards_b[0].pending
        ]


class TestTenancyOffBitIdentity:
    """The acceptance gate: with tenancy *configured but unused* (an
    admission controller, a tenant-aware rebalancer —
    but an untenanted stream), every run is bit-identical to the plain
    PR-5 configuration."""

    def test_fcfs_multi_shard(self):
        plain = run_sharded(
            BatchedFCFSPolicy(fake_estimate),
            "serial",
            rebalance=ThresholdRebalancePolicy(),
        )
        wired = run_sharded(
            BatchedFCFSPolicy(fake_estimate),
            "serial",
            rebalance=ThresholdRebalancePolicy(tenant_aware=True),
            admission=AdmissionController(),
        )
        assert_runs_identical(plain, wired)
        assert wired.admission_rejected == 0
        assert wired.tenant_jct == {}

    def test_qonductor_multi_shard(self):
        plain = run_sharded(
            QonductorScheduler(fake_estimate, seed=5, max_generations=4),
            "serial",
        )
        wired = run_sharded(
            QonductorScheduler(fake_estimate, seed=5, max_generations=4),
            "serial",
            admission=AdmissionController(quota_action="reject"),
        )
        assert_runs_identical(plain, wired)

    def test_tenanted_stream_same_arrivals_as_untenanted(self):
        """Tenant stamping draws from its own RNG substream: the tenanted
        run carries the same circuits at the same instants."""
        from repro.cloud import LoadGenerator

        base = LoadGenerator(mean_rate_per_hour=900, diurnal=False, seed=4)
        mixed = LoadGenerator(
            mean_rate_per_hour=900,
            diurnal=False,
            tenants=abusive_mix(),
            seed=4,
        )
        a, b = base.generate(1200.0), mixed.generate(1200.0)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.arrival_time == y.arrival_time
            assert (
                x.quantum_job.metrics.fingerprint
                == y.quantum_job.metrics.fingerprint
            )
        assert any(app.quantum_job.tenant is not None for app in b)


class TestTenantedRuns:
    def test_admission_and_tier_weighting_end_to_end(self):
        mix = abusive_mix(
            abuser_rate_limit_per_hour=400.0,
            abuser_queue_quota=10,
            normal_slo_seconds=1800.0,
        )
        m = run_sharded(
            BatchedFCFSPolicy(fake_estimate),
            "serial",
            tenants=mix,
            admission=AdmissionController(quota_action="degrade"),
        )
        report = m.tenant_report()
        assert set(report["per_tenant"]) == {
            "tenant-0", "tenant-1", "tenant-2", "abuser"
        }
        # The front door actually engaged on the flooding tenant.
        abuser = report["per_tenant"]["abuser"]
        assert (
            abuser["admission"]["rejected"] > 0
            or abuser["admission"]["degraded"] > 0
        )
        assert report["per_tenant"]["tenant-0"]["admission"]["rejected"] == 0
        # Tier weighting: the premium tenant completes no slower (mean)
        # than the throttled abuser under the same seeded stream.
        assert (
            report["per_tenant"]["tenant-0"]["mean_jct"]
            <= report["per_tenant"]["abuser"]["mean_jct"]
        )
        assert 0.0 < report["jain_fairness"] <= 1.0
        # Conservation holds with the front door in the path.
        total = (
            m.dispatched_jobs
            + m.unschedulable_jobs
            + m.pending_at_horizon
            + m.admission_rejected
        )
        counted = sum(
            sum(bucket.values())
            for bucket in m.per_tenant_admission.values()
        )
        assert counted == total

    def test_tenanted_run_is_deterministic(self):
        def run():
            return run_sharded(
                BatchedFCFSPolicy(fake_estimate),
                "serial",
                tenants=abusive_mix(abuser_rate_limit_per_hour=400.0),
                admission=AdmissionController(),
            )

        assert_runs_identical(run(), run())

    def test_jain_fairness_from_metrics(self):
        m = run_sharded(
            BatchedFCFSPolicy(fake_estimate),
            "serial",
            tenants=abusive_mix(),
        )
        j = m.jain_fairness()
        assert 0.0 < j <= 1.0
        means = [float(np.mean(v)) for v in m.tenant_jct.values()]
        assert j == pytest.approx(jain_index(means))
