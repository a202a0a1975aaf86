"""Seeded property-style invariants over the fleet and load layers.

Four families of invariants that must hold for *every* input, not just
the handpicked scenarios of the unit suites:

* balancer width-feasibility — whenever any shard can fit a job, the
  chosen shard can;
* rebalancing conservation — only pending jobs move, only to shards
  that fit them, and no job is created, lost, or duplicated;
* streaming equivalence — ``generate`` and ``iter_arrivals`` are the
  same stream (arrival times, circuits, shots, tenants) for every
  arrival process;
* job conservation — every submitted application is accounted for at
  the horizon: completed, still in flight, failed, or shed at the
  front door.

Structure-level properties run under hypothesis (derandomized, so CI is
stable); whole-simulation properties run as seeded parametrized cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers.determinism import fake_estimate, make_job, make_shards
from repro.backends.fleet import fleet_of_size
from repro.cloud import (
    AdmissionController,
    CloudSimulator,
    ExecutionModel,
    LoadGenerator,
    SimulationConfig,
    ThresholdRebalancePolicy,
    abusive_mix,
    make_balancer,
)
from repro.scheduler import BatchedFCFSPolicy, FCFSPolicy, SchedulingTrigger

# Name buckets with distinct widths (27q / 16q / 7q / 27q).
_SHARD_GROUPS = [["auckland"], ["guadalupe"], ["lagos"], ["hanoi"]]
_MAX_WIDTH = 27

_settings = settings(max_examples=30, deadline=None, derandomize=True)


# ----------------------------------------------------------------------
# Balancer width-feasibility
# ----------------------------------------------------------------------

class TestBalancerFeasibility:
    @_settings
    @given(
        strategy=st.sampled_from(["round_robin", "least_loaded", "qubit_fit"]),
        widths=st.lists(st.integers(2, _MAX_WIDTH), min_size=1, max_size=25),
        preload=st.lists(st.integers(0, 6), min_size=4, max_size=4),
    )
    def test_route_fits_whenever_possible(self, strategy, widths, preload):
        """If any shard fits the job, the routed shard fits the job."""
        shards = make_shards(
            _SHARD_GROUPS, policy=BatchedFCFSPolicy(fake_estimate)
        )
        for shard, depth in zip(shards, preload):
            shard.pending = [make_job(5) for _ in range(depth)]
        balancer = make_balancer(strategy)
        for width in widths:
            job = make_job(width)
            shard = balancer.route(job, shards, 0.0)
            if any(s.fits(job) for s in shards):
                assert shard.fits(job)
            shard.enqueue(job)  # what the simulator does

    @_settings
    @given(
        widths=st.lists(st.integers(2, _MAX_WIDTH), min_size=1, max_size=25),
        offline=st.integers(0, 3),
    )
    def test_route_respects_outages(self, widths, offline):
        """Feasibility is over *online* QPUs: a dark shard never wins
        while a live one fits."""
        shards = make_shards(_SHARD_GROUPS)
        for backend in shards[offline].backends:
            shards[offline].set_online(backend.name, False)
        balancer = make_balancer("qubit_fit")
        for width in widths:
            job = make_job(width)
            shard = balancer.route(job, shards, 0.0)
            if any(s.fits(job) for s in shards):
                assert shard.fits(job)
                assert shard.shard_id != offline


# ----------------------------------------------------------------------
# Rebalancing conservation
# ----------------------------------------------------------------------

def _queue_state(shards):
    return {s.shard_id: [j.job_id for j in s.pending] for s in shards}


class TestRebalanceConservation:
    @_settings
    @given(
        depths=st.lists(st.integers(0, 20), min_size=4, max_size=4),
        seed=st.integers(0, 2**16),
    )
    def test_moves_conserve_jobs_and_respect_fit(self, depths, seed):
        shards = make_shards(
            _SHARD_GROUPS, policy=BatchedFCFSPolicy(fake_estimate)
        )
        rng = np.random.default_rng(seed)
        t = 0.0
        for shard, depth in zip(shards, depths):
            for _ in range(depth):
                t += 1.0
                shard.enqueue(
                    make_job(int(rng.integers(2, _MAX_WIDTH + 1)),
                             arrival_time=t)
                )
        before = _queue_state(shards)
        all_before = sorted(j for q in before.values() for j in q)
        moves = ThresholdRebalancePolicy().rebalance(shards, 0.0)
        after = _queue_state(shards)
        all_after = sorted(j for q in after.values() for j in q)
        # No job created, lost, or duplicated.
        assert all_before == all_after
        for move in moves:
            # Only to a currently-fitting destination.
            assert move.job.num_qubits <= move.dst.max_qubits
            # The job really was pending on the source before the tick.
            assert move.job.job_id in before[move.src.shard_id]
        # Accounting matches the queues.
        stolen_out = sum(s.jobs_stolen_out for s in shards)
        stolen_in = sum(s.jobs_stolen_in for s in shards)
        assert stolen_out == stolen_in == len(moves)

    @_settings
    @given(
        depths=st.lists(st.integers(0, 20), min_size=4, max_size=4),
        seed=st.integers(0, 2**16),
    )
    def test_tenant_aware_moves_same_invariants(self, depths, seed):
        """tenant_aware=True changes *which* jobs move, never the rules."""
        from repro.cloud import Tenant, ThresholdRebalancePolicy

        tenants = [Tenant(f"t{i}", tier=i % 3) for i in range(3)]
        shards = make_shards(
            _SHARD_GROUPS, policy=BatchedFCFSPolicy(fake_estimate)
        )
        rng = np.random.default_rng(seed)
        t = 0.0
        for shard, depth in zip(shards, depths):
            for _ in range(depth):
                t += 1.0
                shard.enqueue(
                    make_job(
                        int(rng.integers(2, _MAX_WIDTH + 1)),
                        tenant=tenants[int(rng.integers(3))],
                        arrival_time=t,
                    )
                )
        before = _queue_state(shards)
        all_before = sorted(j for q in before.values() for j in q)
        moves = ThresholdRebalancePolicy(tenant_aware=True).rebalance(
            shards, 0.0
        )
        all_after = sorted(
            j for q in _queue_state(shards).values() for j in q
        )
        assert all_before == all_after
        for move in moves:
            assert move.job.num_qubits <= move.dst.max_qubits
            assert move.job.job_id in before[move.src.shard_id]


# ----------------------------------------------------------------------
# Streaming equivalence (generate == iter_arrivals), incl. tenants
# ----------------------------------------------------------------------

class TestStreamingEquivalence:
    @pytest.mark.parametrize(
        "process,diurnal",
        [("poisson", False), ("poisson", True), ("mmpp", False)],
    )
    @pytest.mark.parametrize("tenanted", [False, True])
    def test_generate_equals_iter_arrivals(self, process, diurnal, tenanted):
        def make_gen():
            return LoadGenerator(
                mean_rate_per_hour=1200,
                arrival_process=process,
                diurnal=diurnal,
                tenants=abusive_mix() if tenanted else None,
                seed=13,
            )

        eager = make_gen().generate(1500.0)
        lazy = list(make_gen().iter_arrivals(1500.0))
        assert len(eager) == len(lazy) > 0
        for x, y in zip(eager, lazy):
            jx, jy = x.quantum_job, y.quantum_job
            assert x.arrival_time == y.arrival_time
            assert jx.metrics.fingerprint == jy.metrics.fingerprint
            assert jx.shots == jy.shots
            assert jx.mitigation == jy.mitigation
            assert jx.tenant_id == jy.tenant_id
            if tenanted:
                assert jx.tenant == jy.tenant
        if tenanted:
            seen = {a.quantum_job.tenant_id for a in eager}
            assert seen <= {"tenant-0", "tenant-1", "tenant-2", "abuser"}
        else:
            assert all(a.quantum_job.tenant is None for a in eager)


# ----------------------------------------------------------------------
# Job conservation at the horizon
# ----------------------------------------------------------------------

class TestConservation:
    def _run(self, *, tenants=None, admission=None, seed=6):
        gen = LoadGenerator(
            mean_rate_per_hour=1500,
            arrival_process="mmpp",
            diurnal=False,
            tenants=tenants,
            seed=seed,
        )
        apps = gen.generate(1200.0)
        sim = CloudSimulator.sharded(
            fleet_of_size(4, seed=7),
            BatchedFCFSPolicy(fake_estimate),
            num_shards=2,
            balancer="least_loaded",
            execution_model=ExecutionModel(seed=5),
            trigger_factory=lambda i: SchedulingTrigger(
                queue_limit=30, interval_seconds=90
            ),
            config=SimulationConfig(duration_seconds=1200.0, seed=5),
            admission=admission,
        )
        return sim.run(apps), apps

    def _assert_conserved(self, m, apps):
        # Every arrival lands in exactly one terminal bucket.
        assert (
            m.dispatched_jobs
            + m.unschedulable_jobs
            + m.pending_at_horizon
            + m.admission_rejected
            == len(apps)
        )
        # Completions are dispatches whose COMPLETION folded in time.
        assert 0 < m.completed_jobs <= m.dispatched_jobs

    @pytest.mark.parametrize("seed", [0, 6, 11])
    def test_untenanted(self, seed):
        m, apps = self._run(seed=seed)
        self._assert_conserved(m, apps)
        assert m.admission_rejected == 0

    def test_tenanted_with_admission(self):
        mix = abusive_mix(
            abuser_rate_limit_per_hour=300.0, abuser_queue_quota=8
        )
        m, apps = self._run(
            tenants=mix, admission=AdmissionController(quota_action="reject")
        )
        self._assert_conserved(m, apps)
        assert m.admission_rejected > 0
        # Per-tenant admission counters cover every arrival.
        counted = sum(
            sum(bucket.values())
            for bucket in m.per_tenant_admission.values()
        )
        assert counted == len(apps)

    def test_immediate_policy_has_no_pending(self):
        gen = LoadGenerator(mean_rate_per_hour=900, diurnal=False, seed=3)
        apps = gen.generate(900.0)
        sim = CloudSimulator(
            fleet_of_size(3, seed=7),
            FCFSPolicy(fake_estimate),
            ExecutionModel(seed=5),
            config=SimulationConfig(duration_seconds=900.0, seed=5),
        )
        m = sim.run(apps)
        assert m.pending_at_horizon == 0
        assert m.dispatched_jobs + m.unschedulable_jobs == len(apps)
