"""The policy contract: one declared surface, checked at construction.

* the engine files never probe a policy, schedule or estimate source
  with ``hasattr`` / defaulted ``getattr`` (AST guard);
* a :class:`FleetShard` rejects a non-policy, or an incomplete one, with
  a ``TypeError`` naming the shard and the missing piece;
* ``CloudSimulator.sharded`` forwards every engine keyword to the
  constructor, so the two cannot drift;
* batched FCFS on begin → finish commits exactly the trigger-time
  decisions it committed when it scheduled inside ``_begin_batch``.
"""

import ast
import hashlib
import inspect
from pathlib import Path

import pytest

import repro
from helpers.determinism import fake_estimate, run_sharded
from repro.backends.fleet import fleet_of_size
from repro.cloud import CloudSimulator, FleetShard, SimulatedQPU
from repro.scheduler import (
    BatchedFCFSPolicy,
    FCFSPolicy,
    LeastBusyPolicy,
    QonductorScheduler,
    RandomPolicy,
    SchedulingPolicy,
)

SRC = Path(repro.__file__).parent
PROBE_FREE = (
    "cloud/simulator.py",
    "cloud/fleet.py",
    "scheduler/policies.py",
    "scheduler/quantum.py",
    "scheduler/policy.py",
)


def _probes(path: Path) -> list[str]:
    """``hasattr(...)`` calls and ``getattr(x, "<literal>", default)``
    calls in ``path``.  Two-argument ``getattr`` (a lookup that raises
    when the name is absent) is not a probe."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        if node.func.id == "hasattr" or (
            node.func.id == "getattr"
            and len(node.args) == 3
            and isinstance(node.args[1], ast.Constant)
        ):
            found.append(f"{path.name}:{node.lineno}")
    return found


class TestNoProbes:
    @pytest.mark.parametrize("rel", PROBE_FREE)
    def test_engine_files_do_not_probe(self, rel):
        assert _probes(SRC / rel) == []

    def test_guard_sees_both_probe_forms(self, tmp_path):
        sample = tmp_path / "sample.py"
        sample.write_text(
            "a = hasattr(p, 'spawn')\n"
            "b = getattr(p, 'stats', None)\n"
            "c = getattr(p, name)\n"
        )
        assert _probes(sample) == ["sample.py:1", "sample.py:2"]


def _backends():
    return [SimulatedQPU(q) for q in fleet_of_size(2, seed=7)]


class TestConstructionTimeErrors:
    def test_every_shipped_policy_is_accepted(self):
        for policy in (
            FCFSPolicy(fake_estimate),
            BatchedFCFSPolicy(fake_estimate),
            LeastBusyPolicy(fake_estimate),
            RandomPolicy(seed=1),
            QonductorScheduler(fake_estimate),
        ):
            shard = FleetShard(0, _backends(), policy.spawn(0))
            assert shard.is_batched is policy.batched

    def test_non_policy_rejected(self):
        with pytest.raises(TypeError, match=r"FleetShard 3 .*SchedulingPolicy.*object"):
            FleetShard(3, _backends(), object())

    def test_missing_spawn_named(self):
        class NoSpawn(SchedulingPolicy):
            def assign(self, jobs, qpus, waiting_seconds):
                return [(job, None) for job in jobs]

        with pytest.raises(TypeError, match=r"FleetShard 0: NoSpawn .*spawn"):
            FleetShard(0, _backends(), NoSpawn())

    def test_missing_shape_named(self):
        class HalfBatched(SchedulingPolicy):
            batched = True

            def spawn(self, shard_id):
                return self

            def begin_cycle(self, jobs, qpus, waiting_seconds=None):
                return None

        with pytest.raises(TypeError, match=r"batched=True .*finish_cycle"):
            FleetShard(0, _backends(), HalfBatched())

    def test_least_busy_needs_an_estimate_source(self):
        with pytest.raises(TypeError, match="EstimateSource"):
            LeastBusyPolicy(lambda job, qpu: (0.9, 1.0))


class TestShardedForwardsEngineKeywords:
    def test_unknown_keyword_raises(self):
        with pytest.raises(TypeError, match="no_such_keyword"):
            CloudSimulator.sharded(
                fleet_of_size(2, seed=7),
                FCFSPolicy(fake_estimate),
                num_shards=2,
                no_such_keyword=1,
            )

    def test_every_constructor_keyword_is_accepted(self):
        params = inspect.signature(CloudSimulator.__init__).parameters
        # What ``sharded`` builds itself: the shards, from fleet + policy
        # + per-shard triggers.
        engine = {
            name: p.default
            for name, p in params.items()
            if name not in ("self", "fleet", "policy", "trigger", "shards", "balancer")
        }
        assert {"execution_model", "config", "cycle_latency", "trigger_epsilon"} <= set(
            engine
        )
        sim = CloudSimulator.sharded(
            fleet_of_size(2, seed=7),
            FCFSPolicy(fake_estimate),
            num_shards=2,
            **engine,
        )
        assert len(sim.shards) == 2
        spelled = inspect.signature(CloudSimulator.sharded).parameters
        assert not set(engine) & set(spelled), "engine keyword spelled twice"


def test_batched_fcfs_latency_run_matches_pre_contract_digest():
    """3-shard batched FCFS with a modeled cycle latency: jobs arriving
    between trigger and fold must wait for the next cycle, exactly as
    when the schedule was computed inside ``_begin_batch`` (digest pinned
    at the commit before the begin → finish move)."""
    metrics = run_sharded(
        BatchedFCFSPolicy(fake_estimate), "serial", cycle_latency=7.5
    )
    assert metrics.pipelined_batches == 5
    digest = hashlib.sha256(
        repr(metrics.deterministic_state()).encode()
    ).hexdigest()
    assert digest == (
        "a0a675aa31ec940ad1e432b0e95c546fd2c3c321fdf8014caff0645cf211a8b8"
    )
