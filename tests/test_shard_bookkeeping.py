"""What a shard says about its queue equals what its queue holds.

The per-arrival path reads three facts off a :class:`FleetShard` —
``tenant_pending``, the dominant tenant, ``max_qubits`` — and a wrong one
is not an error, it is a routing or migration decision that silently
differs.  So the facts are checked against a recount after *every* step
of random operation sequences (hypothesis, derandomized), over every way
a queue or an online flag changes: an arrival, a cycle taking the queue,
a cycle handing unschedulable jobs back, a test loading a queue
wholesale, both rebalancers with and without ``tenant_aware``, and an
availability flip.

Beside it, the tenant-aware scan order is compared with the full sort it
replaced (``reference_kernels.tenant_scan_order_sorted``): equal as
lists on fuzzed queues, and both rebalancers make the same migrations
and leave the same queues as a run driven by the sorted order.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers.determinism import fake_estimate, make_job, make_shards
from helpers.reference_kernels import tenant_scan_order_sorted
from repro.cloud import (
    StealHalfRebalancePolicy,
    Tenant,
    ThresholdRebalancePolicy,
)
from repro.scheduler import BatchedFCFSPolicy

_settings = settings(max_examples=30, deadline=None, derandomize=True)

# Two QPUs in three of the four shards, so one flip changes the online
# width without zeroing it (27q+7q / 16q+7q / 27q / 27q+27q).
_SHARD_GROUPS = [
    ["auckland", "lagos"],
    ["guadalupe", "nairobi"],
    ["hanoi"],
    ["cairo", "kolkata"],
]
_TENANTS = [Tenant("t0"), Tenant("t1", tier=1), Tenant("t2", tier=2)]


# The four ways the simulator touches a shard's queue and flags.
def _enqueue(shard, job):
    shard.pending.append(job)


def _take_all(shard):
    jobs = shard.pending
    shard.pending = []
    return jobs


def _requeue_front(shard, jobs):
    shard.pending[:0] = jobs


def _set_online(shard, qpu_name, online):
    shard.backend_by_name[qpu_name].qpu.online = online


def _assert_facts_match_recount(shards, tenant_ids):
    for shard in shards:
        for tid in tenant_ids:
            assert shard.tenant_pending(tid) == sum(
                1 for j in shard.pending if j.tenant_id == tid
            )
        widest = 0
        for b in shard.backends:
            if b.qpu.online and b.qpu.num_qubits > widest:
                widest = b.qpu.num_qubits
        assert shard.max_qubits == widest


_job_spec = st.tuples(
    st.integers(2, 27), st.one_of(st.none(), st.integers(0, 2))
)
_shard_index = st.integers(0, 3)
_op = st.one_of(
    st.tuples(st.just("enqueue"), _shard_index, _job_spec),
    st.tuples(st.just("take_all"), _shard_index),
    st.tuples(st.just("cycle"), _shard_index, st.integers(0, 5)),
    st.tuples(
        st.just("assign"), _shard_index, st.lists(_job_spec, max_size=12)
    ),
    st.tuples(
        st.just("rebalance"),
        st.sampled_from(["threshold", "steal_half"]),
        st.booleans(),
    ),
    st.tuples(
        st.just("flip"), _shard_index, st.integers(0, 1), st.booleans()
    ),
)


class TestFactsMatchRecount:
    @_settings
    @given(
        num_shards=st.integers(3, 4),
        num_tenants=st.integers(0, 3),
        ops=st.lists(_op, min_size=1, max_size=60),
    )
    def test_after_every_step(self, num_shards, num_tenants, ops):
        shards = make_shards(
            _SHARD_GROUPS[:num_shards],
            policy=BatchedFCFSPolicy(fake_estimate),
        )
        tenants = _TENANTS[:num_tenants]
        tenant_ids = [t.tenant_id for t in _TENANTS]
        clock = [0.0]

        def job_of(spec):
            width, tenant_index = spec
            tenant = None
            if tenant_index is not None and tenants:
                tenant = tenants[tenant_index % len(tenants)]
            clock[0] += 1.0
            return make_job(width, tenant=tenant, arrival_time=clock[0])

        rebalancers = {
            (name, aware): cls(tenant_aware=aware)
            for name, cls in (
                ("threshold", ThresholdRebalancePolicy),
                ("steal_half", StealHalfRebalancePolicy),
            )
            for aware in (False, True)
        }
        _assert_facts_match_recount(shards, tenant_ids)
        for op in ops:
            kind = op[0]
            if kind == "rebalance":
                rebalancers[op[1:]].rebalance(shards, clock[0])
            else:
                shard = shards[op[1] % num_shards]
                if kind == "enqueue":
                    _enqueue(shard, job_of(op[2]))
                elif kind == "take_all":
                    _take_all(shard)
                elif kind == "cycle":
                    # A cycle takes the queue, jobs arrive meanwhile, and
                    # the fold hands the unschedulable ones back in front.
                    taken = _take_all(shard)
                    _enqueue(shard, job_of((5, 0)))
                    _requeue_front(shard, taken[: op[2]])
                elif kind == "assign":
                    shard.pending = [job_of(spec) for spec in op[2]]
                else:
                    backend = shard.backends[op[2] % len(shard.backends)]
                    _set_online(shard, backend.name, op[3])
            _assert_facts_match_recount(shards, tenant_ids)


def _fuzzed_queue(rng, size, tenants, tenanted_share):
    queue = []
    for i in range(size):
        tenant = None
        if tenants and rng.random() < tenanted_share:
            tenant = tenants[int(rng.integers(len(tenants)))]
        queue.append(
            make_job(
                int(rng.integers(2, 28)), tenant=tenant, arrival_time=float(i)
            )
        )
    return queue


class _SortedOrder:
    """Drive a rebalancer with the sorted reference order."""

    def _tenant_scan_order(self, pending):
        if not self.tenant_aware:
            return None
        return tenant_scan_order_sorted(pending)


class _SortedThreshold(_SortedOrder, ThresholdRebalancePolicy):
    pass


class _SortedStealHalf(_SortedOrder, StealHalfRebalancePolicy):
    pass


class TestScanOrderMatchesSort:
    def _order(self, queue, tenant_aware=True):
        shard = make_shards(
            [["auckland"]], policy=BatchedFCFSPolicy(fake_estimate)
        )[0]
        shard.pending = queue
        order = ThresholdRebalancePolicy(
            tenant_aware=tenant_aware
        )._tenant_scan_order(shard.pending)
        return None if order is None else list(order)

    def test_equal_as_lists_on_fuzzed_queues(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            queue = _fuzzed_queue(
                rng, int(rng.integers(0, 40)), _TENANTS, rng.random()
            )
            assert self._order(queue) == tenant_scan_order_sorted(queue)

    def test_count_ties_break_on_the_smallest_id(self):
        a, b = Tenant("a"), Tenant("b")
        queue = [make_job(5, tenant=t) for t in (b, a, b, a, None)]
        assert self._order(queue) == [3, 1, 4, 2, 0]
        assert tenant_scan_order_sorted(queue) == [3, 1, 4, 2, 0]

    def test_untenanted_queue_or_flag_off_is_none(self):
        queue = [make_job(5) for _ in range(4)]
        assert self._order(queue) is None
        assert tenant_scan_order_sorted(queue) is None
        assert self._order([]) is None
        tenanted = [make_job(5, tenant=_TENANTS[0])]
        assert self._order(tenanted, tenant_aware=False) is None

    @pytest.mark.parametrize(
        "live,reference,kwargs",
        [
            (ThresholdRebalancePolicy, _SortedThreshold, {"min_gap": 2}),
            (ThresholdRebalancePolicy, _SortedThreshold, {"min_gap": 6}),
            (StealHalfRebalancePolicy, _SortedStealHalf, {}),
        ],
    )
    def test_rebalancers_match_a_run_on_the_sorted_order(
        self, live, reference, kwargs
    ):
        rng = np.random.default_rng(5)
        groups = [["auckland"], ["guadalupe"], ["lagos"]]
        cases = []
        for _ in range(25):
            sizes = [int(n) for n in rng.integers(0, 30, size=3)]
            sizes[int(rng.integers(3))] = 0  # an idle thief
            cases.append(
                [
                    _fuzzed_queue(rng, n, _TENANTS, rng.random())
                    for n in sizes
                ]
            )
        # The dominant tenant's jobs (20q) fit no destination but the
        # 27q source: the scan falls through to everyone else's.
        wide, narrow = _TENANTS[0], _TENANTS[1]
        cases.append(
            [
                [],
                [make_job(20, tenant=wide, arrival_time=float(i))
                 for i in range(9)]
                + [make_job(5, tenant=narrow, arrival_time=9.0 + i)
                   for i in range(5)],
                [],
            ]
        )
        for queues in cases:
            # The 27q shard holds the middle queue so wide jobs can sit
            # somewhere; 16q and 7q shards are the destinations.
            ordered = [queues[0], queues[1], queues[2]]
            shard_sets = []
            for cls in (live, reference):
                shards = make_shards(
                    [groups[1], groups[0], groups[2]],
                    policy=BatchedFCFSPolicy(fake_estimate),
                )
                for shard, queue in zip(shards, ordered):
                    shard.pending = list(queue)
                moves = cls(tenant_aware=True, **kwargs).rebalance(
                    shards, 0.0
                )
                shard_sets.append(
                    (
                        [
                            (m.job.job_id, m.src.shard_id, m.dst.shard_id)
                            for m in moves
                        ],
                        [[j.job_id for j in s.pending] for s in shards],
                    )
                )
            assert shard_sets[0] == shard_sets[1]
