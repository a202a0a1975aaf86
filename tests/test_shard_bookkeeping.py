"""What a shard says about its queue equals what its queue holds.

The per-arrival path reads three facts off a :class:`FleetShard` —
``tenant_pending``, the dominant tenant, ``max_qubits`` — and a wrong one
is not an error, it is a routing or migration decision that silently
differs.  So the facts are checked against a recount after *every* step
of random operation sequences (hypothesis, derandomized), over every way
a queue or an online flag changes: an arrival, a cycle taking the queue,
a cycle handing unschedulable jobs back, a test loading a queue
wholesale, the rebalancer with and without ``tenant_aware``, and an
availability flip.

Beside it, the tenant-aware scan order is compared with the full sort it
replaced (``reference_kernels.tenant_scan_order_sorted``): equal as
lists on fuzzed queues, and the rebalancer makes the same migrations
and leaves the same queues as a run driven by the sorted order.

Two AST guards keep ``src/`` from going around the bookkeeping: outside
``class FleetShard`` nothing mutates a ``.pending``, and ``.online`` is
assigned only in ``QPU.__init__`` and ``FleetShard.set_online``.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from helpers.determinism import fake_estimate, make_job, make_shards
from helpers.reference_kernels import tenant_scan_order_sorted
from repro.cloud import Tenant, ThresholdRebalancePolicy
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


def _assert_facts_match_recount(shards, tenant_ids):
    for shard in shards:
        assert all(n > 0 for n in shard._tenant_counts.values())
        assert set(shard._tenant_counts) <= set(tenant_ids)
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
    st.tuples(st.just("rebalance"), st.booleans()),
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
            aware: ThresholdRebalancePolicy(tenant_aware=aware)
            for aware in (False, True)
        }
        _assert_facts_match_recount(shards, tenant_ids)
        for op in ops:
            kind = op[0]
            if kind == "rebalance":
                rebalancers[op[1]].rebalance(shards, clock[0])
            else:
                shard = shards[op[1] % num_shards]
                if kind == "enqueue":
                    shard.enqueue(job_of(op[2]))
                elif kind == "take_all":
                    shard.take_all()
                elif kind == "cycle":
                    # A cycle takes the queue, jobs arrive meanwhile, and
                    # the fold hands the unschedulable ones back in front.
                    taken = shard.take_all()
                    shard.enqueue(job_of((5, 0)))
                    shard.requeue_front(taken[: op[2]])
                elif kind == "assign":
                    shard.pending = [job_of(spec) for spec in op[2]]
                else:
                    backend = shard.backends[op[2] % len(shard.backends)]
                    shard.set_online(backend.name, op[3])
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

    def _tenant_scan_order(self, shard):
        if not self.tenant_aware:
            return None
        return tenant_scan_order_sorted(shard.pending)


class _SortedThreshold(_SortedOrder, ThresholdRebalancePolicy):
    pass


class TestScanOrderMatchesSort:
    def _order(self, queue, tenant_aware=True):
        shard = make_shards(
            [["auckland"]], policy=BatchedFCFSPolicy(fake_estimate)
        )[0]
        shard.pending = queue
        order = ThresholdRebalancePolicy(
            tenant_aware=tenant_aware
        )._tenant_scan_order(shard)
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
            sizes[int(rng.integers(3))] = 0  # an empty queue
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


# ----------------------------------------------------------------------
# Guards: src/ cannot go around the bookkeeping
# ----------------------------------------------------------------------

SRC = Path(repro.__file__).parent
_LIST_MUTATORS = {
    "append", "pop", "insert", "extend", "remove", "clear", "sort", "reverse",
}


def _is_attr(node, name):
    return isinstance(node, ast.Attribute) and node.attr == name


class _Writes(ast.NodeVisitor):
    """``Class.function`` scope of every write to an attribute called
    ``attr``: an assignment to it and — with ``as_list`` — an assignment
    to (or ``del`` of) a subscript of it, or a list-mutator call on it."""

    def __init__(self, attr, *, as_list):
        self.attr, self.as_list = attr, as_list
        self.scope, self.found = [], []

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = _scoped

    def _target(self, node, target):
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._target(node, element)
        elif _is_attr(target, self.attr) or (
            self.as_list
            and isinstance(target, ast.Subscript)
            and _is_attr(target.value, self.attr)
        ):
            self.found.append((".".join(self.scope), node.lineno))

    def visit_Assign(self, node):
        for target in node.targets:
            self._target(node, target)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        self._target(node, node.target)
        self.generic_visit(node)

    visit_AnnAssign = visit_AugAssign

    def visit_Delete(self, node):
        for target in node.targets:
            self._target(node, target)

    def visit_Call(self, node):
        if (
            self.as_list
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _LIST_MUTATORS
            and _is_attr(node.func.value, self.attr)
        ):
            self.found.append((".".join(self.scope), node.lineno))
        self.generic_visit(node)


def _writes(path, attr, *, as_list=False):
    """``(file name, Class.function, line)`` of every write in ``path``."""
    visitor = _Writes(attr, as_list=as_list)
    visitor.visit(ast.parse(path.read_text()))
    return [(path.name, scope, line) for scope, line in visitor.found]


def _pending_writes_outside_the_shard(path):
    return [
        w for w in _writes(path, "pending", as_list=True)
        if not w[1].startswith("FleetShard.")
    ]


class TestNothingGoesAroundTheShard:
    def test_only_the_shard_mutates_a_pending_queue(self):
        found = [
            w
            for path in sorted(SRC.rglob("*.py"))
            for w in _pending_writes_outside_the_shard(path)
        ]
        assert found == []

    def test_online_is_assigned_at_construction_and_on_a_flip(self):
        scopes = sorted(
            (name, scope)
            for path in sorted(SRC.rglob("*.py"))
            for name, scope, _ in _writes(path, "online")
        )
        assert scopes == [
            ("fleet.py", "FleetShard.set_online"),
            ("qpu.py", "QPU.__init__"),
        ]

    def test_guards_see_what_they_forbid(self, tmp_path):
        sample = tmp_path / "sample.py"
        sample.write_text(
            "class FleetShard:\n"
            "    def enqueue(self, job):\n"
            "        self.pending.append(job)\n"
            "def route(shard, job, jobs):\n"
            "    shard.pending.append(job)\n"
            "    shard.pending = []\n"
            "    shard.pending[:0] = jobs\n"
            "    shard.pending[-2:], n = jobs, 2\n"
            "    del shard.pending[0]\n"
            "    shard.pending.sort(key=len)\n"
            "    depth = len(shard.pending)\n"
            "    first = shard.pending[0]\n"
            "    qpu.online = False\n"
            "    up = qpu.online\n"
        )
        assert _pending_writes_outside_the_shard(sample) == [
            ("sample.py", "route", line) for line in (5, 6, 7, 8, 9, 10)
        ]
        assert _writes(sample, "online") == [("sample.py", "route", 13)]
