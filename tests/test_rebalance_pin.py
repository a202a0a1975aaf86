"""Bit-identity pin of :class:`ThresholdRebalancePolicy`'s decisions.

Seeded fuzzed shard sets (3-4 shards over 27q / 16q / 7q QPUs, queues
of 0-30 jobs of width 2-27, a random share of them tenant-tagged) each
run one rebalance tick under every combination of ``tenant_aware`` off
and on, ``min_gap`` 2 and 8, and all QPUs online or one taken offline.
The digest covers each tick's migrations ``(job, src, dst)``, every
shard's ``jobs_stolen_in`` / ``jobs_stolen_out`` and the queues left
behind.  Jobs are named by their position in the case, not by their
process-global ``job_id``, so the digest does not depend on which tests
ran first.  A refactor of the rebalancer that changes one decision, one
counter or one queue order fails here.
"""

import functools
import hashlib

import numpy as np

from helpers.determinism import fake_estimate, make_job, make_shards
from repro.cloud import Tenant, ThresholdRebalancePolicy
from repro.scheduler import BatchedFCFSPolicy

#: sha256 over every case below, recorded before the rebalancers were
#: cut to this one.
DIGEST = "46a52552a2fdb7e6e49c3a68243b745921098e5b616b34671606f1e7c27aa836"

# 27q+7q / 16q+7q / 27q / 27q+27q: three shards keep an online QPU when
# one of theirs goes down.
_SHARD_GROUPS = [
    ["auckland", "lagos"],
    ["guadalupe", "nairobi"],
    ["hanoi"],
    ["cairo", "kolkata"],
]
_TENANTS = [Tenant("t0"), Tenant("t1", tier=1), Tenant("t2", tier=2)]


def _cases(seed=11, count=40):
    """``(groups, queue specs, offline QPU name)`` per fuzzed case; a
    queue spec is a list of ``(width, tenant index or None)``."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        groups = _SHARD_GROUPS[: int(rng.integers(3, 5))]
        tenanted_share = float(rng.random())
        queues = []
        for _ in groups:
            spec = []
            for _ in range(int(rng.integers(0, 31))):
                tenant = None
                if rng.random() < tenanted_share:
                    tenant = int(rng.integers(len(_TENANTS)))
                spec.append((int(rng.integers(2, 28)), tenant))
            queues.append(spec)
        names = [name for group in groups for name in group]
        offline = names[int(rng.integers(len(names)))]
        cases.append((groups, queues, offline))
    return cases


def _tick(groups, queues, offline, *, tenant_aware, min_gap):
    shards = make_shards(groups, policy=BatchedFCFSPolicy(fake_estimate))
    index = {}
    clock = 0.0
    for shard, spec in zip(shards, queues):
        jobs = []
        for width, tenant in spec:
            clock += 1.0
            job = make_job(
                width,
                tenant=None if tenant is None else _TENANTS[tenant],
                arrival_time=clock,
            )
            index[job.job_id] = len(index)
            jobs.append(job)
        shard.pending = jobs
    if offline is not None:
        for shard in shards:
            if offline in shard.backend_by_name:
                shard.set_online(offline, False)
    moves = ThresholdRebalancePolicy(
        min_gap=min_gap, tenant_aware=tenant_aware
    ).rebalance(shards, clock)
    return (
        [(index[m.job.job_id], m.src.shard_id, m.dst.shard_id) for m in moves],
        [(s.jobs_stolen_in, s.jobs_stolen_out) for s in shards],
        [[index[j.job_id] for j in s.pending] for s in shards],
    )


@functools.cache
def _rows():
    """``{(case, offline?, tenant_aware, min_gap): tick}`` in a fixed order."""
    rows = {}
    for case, (groups, queues, offline) in enumerate(_cases()):
        for down in (False, True):
            for tenant_aware in (False, True):
                for min_gap in (2, 8):
                    rows[case, down, tenant_aware, min_gap] = _tick(
                        groups,
                        queues,
                        offline if down else None,
                        tenant_aware=tenant_aware,
                        min_gap=min_gap,
                    )
    return rows


def test_cases_exercise_every_knob():
    """The pin covers real work: most ticks migrate, and both
    ``tenant_aware`` and the outage change some ticks' decisions."""
    rows = _rows()
    moved = [bool(moves) for moves, _, _ in rows.values()]
    assert 0.5 < sum(moved) / len(moved) < 1.0
    aware = [k for k in rows if k[2] and rows[k] != rows[k[:2] + (False, k[3])]]
    down = [k for k in rows if k[1] and rows[k] != rows[(k[0], False) + k[2:]]]
    assert len(aware) > 50 and len(down) > 10


def test_migrations_are_pinned():
    digest = hashlib.sha256(repr(list(_rows().values())).encode()).hexdigest()
    assert digest == DIGEST
