"""The policy contract: one declared surface, checked at construction.

* the engine files never probe a policy, schedule or estimate source
  with ``hasattr`` / defaulted ``getattr`` (AST guard);
* a :class:`FleetShard` rejects a non-policy, or an incomplete one, with
  a ``TypeError`` naming the shard and the missing piece;
* ``CloudSimulator.sharded`` forwards every engine keyword to the
  constructor, so the two cannot drift;
* batched FCFS on begin → finish commits exactly the trigger-time
  decisions it committed when it scheduled inside ``_begin_batch``;
* the trigger path reads shard state, never the heap's contents (AST
  guard: no ``heapify``, no heap slice-assignment, every TRIGGER payload
  a bare shard id), and the ε family keeps the digests it had when the
  ε-window rebuilt the heap.
"""

import ast
import hashlib
import inspect
from pathlib import Path

import pytest

import repro
from helpers.determinism import EPSILON_SHAPES, fake_estimate, run_sharded
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


def _heap_surgery(path: Path) -> list[str]:
    """``heapify(...)`` calls and ``<heap>[a:b] = ...`` assignments."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name == "heapify":
                found.append(f"{path.name}:{node.lineno}")
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.slice, ast.Slice)
                    and "heap" in ast.unparse(target.value)
                ):
                    found.append(f"{path.name}:{node.lineno}")
    return found


def _trigger_payloads(path: Path) -> list[str]:
    """Source of the payload of every ``<x>.push(t, EventType.TRIGGER, payload)``."""
    return [
        ast.unparse(node.args[2]) if len(node.args) > 2 else "<none>"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "push"
        and len(node.args) > 1
        and ast.unparse(node.args[1]) == "EventType.TRIGGER"
    ]


class TestTriggerPathReadsShardState:
    def test_simulator_never_rebuilds_the_heap(self):
        assert _heap_surgery(SRC / "cloud/simulator.py") == []

    def test_every_trigger_payload_is_a_bare_shard_id(self):
        payloads = _trigger_payloads(SRC / "cloud/simulator.py")
        # The initial deadline, the re-armed deadline, the ε-window hold.
        assert len(payloads) == 3
        assert set(payloads) == {"shard.shard_id"}

    def test_guards_see_what_they_forbid(self, tmp_path):
        sample = tmp_path / "sample.py"
        sample.write_text(
            "heapq.heapify(heap)\n"
            "st.heap[:] = kept\n"
            "shard.pending[:0] = retained\n"
            "st.push(t, EventType.TRIGGER, (shard.shard_id, 'hold'))\n"
            "st.push(t, EventType.SAMPLE)\n"
        )
        assert sorted(_heap_surgery(sample)) == ["sample.py:1", "sample.py:2"]
        assert _trigger_payloads(sample) == ["(shard.shard_id, 'hold')"]


#: ``(shape, policy, load seed, ε, cycle latency) -> sha256`` of
#: ``deterministic_state()`` at the commit before the ε-window stopped
#: rebuilding the heap: the full state on ε = 0 cells, and on ε > 0 cells
#: everything but ``events_processed`` (a pulled instant's heap entry now
#: pops, stale, at its own time) and ``epsilon_merged_triggers`` (which
#: stopped counting stale entries).
EPSILON_FAMILY_PINS = {
    ("queue", "qonductor", 4, 0.0, 0.0):
        "389fd7312fb0490e8159806799355adde942a5cc35824ac48fb9c77fdff0cda5",
    ("mixed", "fcfs", 9, 0.0, 3.0):
        "d8ab96caf39553451910dce1528341ab1deee382c633aefcb98ead1ee598f3e7",
    ("queue", "qonductor", 4, 15.0, 0.0):
        "71afc81fd1f3839ada9caf39aad6bab55026ee2fc7808c02105584e43a066141",
    ("staggered", "fcfs", 9, 5.0, 30.0):
        "0bbce01bc2e3af07361aa5f915953c15cd45ebb672e132efcc73afc97c519002",
    ("mixed", "fcfs", 4, 15.0, 0.0):
        "f14fc92e6d9a3326b83ae27bfd5fcf9c013a7815ef6100f5516d7381d110c8de",
    ("mixed", "qonductor", 9, 40.0, 3.0):
        "b7b9d1739160b3d077c0ea2d0d6977b77561397e4b563b8a5150dc9e6701b930",
    ("staggered", "qonductor", 4, 40.0, 0.0):
        "1380190d20ef85bbb0bc851edce833856cb3ca66782db21492c0301467e816ca",
}


@pytest.mark.parametrize("cell", EPSILON_FAMILY_PINS, ids=lambda c: "-".join(map(str, c)))
def test_epsilon_family_matches_heap_rebuilding_digests(cell):
    shape, policy, load_seed, epsilon, latency = cell
    metrics = run_sharded(
        QonductorScheduler(fake_estimate, seed=5, max_generations=4)
        if policy == "qonductor"
        else BatchedFCFSPolicy(fake_estimate),
        "serial",
        load_seed=load_seed,
        trigger_epsilon=epsilon,
        cycle_latency=latency,
        **EPSILON_SHAPES[shape],
    )
    state = metrics.deterministic_state()
    if epsilon > 0.0:
        del state["events_processed"], state["epsilon_merged_triggers"]
    digest = hashlib.sha256(repr(state).encode()).hexdigest()
    assert digest == EPSILON_FAMILY_PINS[cell]
