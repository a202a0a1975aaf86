"""The policy contract: one declared surface, checked at construction.

* the engine files never probe a policy, schedule or estimate source
  with ``hasattr`` / defaulted ``getattr`` (AST guard);
* a :class:`FleetShard` rejects a non-policy, or an incomplete one, with
  a ``TypeError`` naming the shard and the missing piece;
* ``CloudSimulator.sharded`` forwards every engine keyword to the
  constructor, so the two cannot drift, and the constructor's keyword
  set is spelled out — as are the shipped policies and the keyword or
  field sets of the scheduler, the availability model, the load
  generator, ``QuantumJob.from_circuit``, ``trained_estimator``, the
  ``repro.ml`` model and its feature map, ``train_estimators``, and the
  mitigation stack and its ZNE, folding and REM entry points;
* the trigger path reads shard state, never the heap's contents (AST
  guard: no ``heapify``, no heap slice-assignment, one TRIGGER push, its
  payload a bare shard id);
* the stream is the only arrival queue (AST guard: no push of an
  ARRIVAL entry);
* the synchronous engine keeps the digests of twelve pinned runs over
  three trigger shapes, two batched policies and two load seeds.
"""

import ast
import dataclasses
import hashlib
import inspect
import math
from pathlib import Path

import pytest

import repro
from helpers.determinism import TRIGGER_SHAPES, fake_estimate, run_sharded
from repro.backends.fleet import fleet_of_size
from repro.cloud import (
    AvailabilityEvent,
    AvailabilityModel,
    CloudSimulator,
    FleetShard,
    LoadGenerator,
    MaintenanceWindow,
    QuantumJob,
    SimulatedQPU,
)
from repro.estimator import EstimateSource, train_estimators
from repro.experiments.common import trained_estimator
from repro.mitigation import MitigationStack, fold_to_factor, mitigate_probs, zne_infer_probs
from repro.ml import PolynomialFeatures, PolynomialRidge
from repro.moo import Termination
from repro.scheduler import (
    BatchedFCFSPolicy,
    FCFSPolicy,
    QonductorScheduler,
    SchedulingPolicy,
    SchedulingTrigger,
)
from repro.simulation import NoisySimulator

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
            QonductorScheduler(fake_estimate),
        ):
            shard = FleetShard(0, _backends(), policy.spawn(0))
            assert shard.trigger == policy.default_trigger()

    def test_non_policy_rejected(self):
        with pytest.raises(TypeError, match=r"FleetShard 3 .*SchedulingPolicy.*object"):
            FleetShard(3, _backends(), object())

    def test_missing_spawn_named(self):
        class NoSpawn(SchedulingPolicy):
            def begin_cycle(self, jobs, qpus, waiting_seconds=None):
                return None

            def finish_cycle(self, plan, result):
                return None

        with pytest.raises(TypeError, match=r"FleetShard 0: NoSpawn .*spawn"):
            FleetShard(0, _backends(), NoSpawn())

    def test_missing_shape_named(self):
        class HalfCycle(SchedulingPolicy):
            def spawn(self, shard_id):
                return self

            def begin_cycle(self, jobs, qpus, waiting_seconds=None):
                return None

        with pytest.raises(TypeError, match=r"HalfCycle does not define finish_cycle$"):
            FleetShard(0, _backends(), HalfCycle())


def _names(fn) -> list[str]:
    return list(inspect.signature(fn).parameters)


def _fields(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls)]


class TestKeywordSets:
    """Every option and shipped policy, spelled out: a new knob is a
    decision, so it edits one of these lines."""

    def test_shipped_policies(self):
        exported = {name: getattr(repro.scheduler, name) for name in repro.scheduler.__all__}
        shipped = sorted(
            name
            for name, obj in exported.items()
            if isinstance(obj, type)
            and issubclass(obj, SchedulingPolicy)
            and obj is not SchedulingPolicy
        )
        assert shipped == ["BatchedFCFSPolicy", "FCFSPolicy", "QonductorScheduler"]
        # What tells the two FCFS policies apart is their default trigger.
        per_arrival = SchedulingTrigger(queue_limit=1, interval_seconds=math.inf)
        assert FCFSPolicy(fake_estimate).default_trigger() == per_arrival
        for name in ("BatchedFCFSPolicy", "QonductorScheduler"):
            assert exported[name](fake_estimate).default_trigger() == SchedulingTrigger()

    def test_policy_and_estimate_source_surface(self):
        # One cycle shape, no per-arrival ``assign`` and no ``batched``
        # flag; FCFS reads fidelity alone.
        assert {
            name for name, value in vars(SchedulingPolicy).items()
            if not name.startswith("_")
        } == {
            "estimate_fn", "shard_id", "spawn", "default_trigger",
            "begin_cycle", "finish_cycle", "schedule",
        }
        methods = {
            name
            for name, value in vars(EstimateSource).items()
            if callable(value) and not name.startswith("_")
        }
        assert methods == {"estimate_block", "best_fidelity", "on_recalibration"}

    def test_scheduler_keywords(self):
        assert _names(QonductorScheduler.__init__) == [
            "self", "estimate_fn", "preference", "pop_size", "max_generations",
            "seed", "shard_id",
        ]

    def test_availability_keywords_and_fields(self):
        assert _names(AvailabilityModel.__init__) == ["self", "windows"]
        assert _fields(MaintenanceWindow) == ["qpu_name", "start", "end"]
        assert _fields(AvailabilityEvent) == ["time", "qpu_name", "online"]

    def test_load_generator_fields(self):
        assert _fields(LoadGenerator) == [
            "mean_rate_per_hour", "mitigation_fraction", "mean_qubits",
            "std_qubits", "min_qubits", "max_qubits", "diurnal", "shots_grid",
            "benchmarks", "circuit_pool_size", "arrival_process",
            "burst_rate_multiplier", "mean_burst_seconds", "mean_calm_seconds",
            "tenants", "seed",
        ]

    def test_job_from_circuit_keywords(self):
        assert _names(QuantumJob.from_circuit) == ["circuit", "shots", "mitigation"]

    def test_trained_estimator_keywords(self):
        # The per-process cache keys on it.
        assert _names(trained_estimator) == ["seed"]

    def test_ml_keywords(self):
        # One model: it fits an intercept, standardizes, regularizes and
        # has no bias column, and training scores degrees 1-3: no caller
        # asked otherwise.
        assert _names(PolynomialRidge.__init__) == ["self", "degree", "alpha"]
        assert _names(PolynomialFeatures.__init__) == ["self", "degree"]
        assert _names(train_estimators) == ["dataset", "seed"]

    def test_optimizer_and_simulator_keywords(self):
        # No caller capped evaluations, turned idle noise off or moved the
        # quasi-static share of dephasing.
        assert _names(Termination.__init__) == ["self", "max_generations"]
        assert _names(NoisySimulator.__init__) == [
            "self", "noise_model", "num_trajectories", "seed",
        ]

    def test_mitigation_keywords_and_fields(self):
        # A stack is its technique names; each technique runs at one
        # setting (no extrapolation factory, REM mode, random partial
        # fold or per-stack twirl count and seed).
        assert _fields(MitigationStack) == ["techniques"]
        assert _names(zne_infer_probs) == ["noise_factors", "probs"]
        assert _names(fold_to_factor) == ["circuit", "scale_factor"]
        assert _names(mitigate_probs) == ["probs", "noise_model", "num_qubits"]


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
        # The whole keyword set, spelled out: a new engine knob is a
        # decision, so it edits this line.
        assert list(params) == [
            "self", "fleet", "policy", "execution_model", "trigger", "config",
            "shards", "balancer", "rebalance", "availability",
            "cycle_executor", "admission",
        ]
        # What ``sharded`` builds itself: the shards, from fleet + policy
        # + per-shard triggers.
        engine = {
            name: p.default
            for name, p in params.items()
            if name not in ("self", "fleet", "policy", "trigger", "shards", "balancer")
        }
        sim = CloudSimulator.sharded(
            fleet_of_size(2, seed=7),
            FCFSPolicy(fake_estimate),
            num_shards=2,
            **engine,
        )
        assert len(sim.shards) == 2
        spelled = inspect.signature(CloudSimulator.sharded).parameters
        assert not set(engine) & set(spelled), "engine keyword spelled twice"


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


def _arrival_pushes(path: Path) -> list[str]:
    """Every ``push`` / ``heappush`` call naming ``EventType.ARRIVAL``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in ("push", "heappush") and "EventType.ARRIVAL" in ast.unparse(node):
                found.append(f"{path.name}:{node.lineno}")
    return found


class TestTriggerPathReadsShardState:
    def test_simulator_never_rebuilds_the_heap(self):
        assert _heap_surgery(SRC / "cloud/simulator.py") == []

    def test_every_trigger_payload_is_a_bare_shard_id(self):
        # One push site (``_arm``) queues the initial deadline and every
        # re-armed one.
        assert _trigger_payloads(SRC / "cloud/simulator.py") == ["shard.shard_id"]

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


class TestArrivalsStayInTheStream:
    def test_simulator_never_pushes_an_arrival(self):
        # The next arrival waits in ``RunState.arrival`` beside the heap,
        # so a heap path for arrivals cannot come back as a second path.
        assert _arrival_pushes(SRC / "cloud/simulator.py") == []

    def test_guard_sees_what_it_forbids(self, tmp_path):
        sample = tmp_path / "sample.py"
        sample.write_text(
            "st.push(nxt.arrival_time, EventType.ARRIVAL, nxt)\n"
            "heapq.heappush(heap, (t, int(EventType.ARRIVAL), next(seq), app))\n"
            "st.push(t, EventType.SAMPLE)\n"
            "st.hold(nxt)\n"
        )
        assert _arrival_pushes(sample) == ["sample.py:1", "sample.py:2"]


#: ``(shape, policy, load seed) -> sha256`` of ``deterministic_state()``
#: of the synchronous engine: one scheduling cycle per firing batch,
#: committed at its trigger instant.  Recorded on the engine that folded
#: a cycle through its own heap event, with that engine's always-zero
#: pipelined / fold-lag / ε-merge counters dropped and its fold pops
#: taken out of ``events_processed``; this engine matches it unprojected.
#: The Qonductor pins were re-recorded when the scheduler's default
#: population went from 64 to 32 genomes; the FCFS pins did not move.
SYNCHRONOUS_PINS = {
    ("queue", "qonductor", 4):
        "3911603c7991245ba4bc4b69accbff8fff433177703af39c36c54bb8a17f5f0b",
    ("queue", "qonductor", 9):
        "802cee3c9d9b826b57940cb566a7ef18db3b138b8a977fdffccb56b9f6362594",
    ("queue", "fcfs", 4):
        "67cf98bba33cb2079e0ce3b34f0dcc535f09413f5cb246a20511a4a222f583f0",
    ("queue", "fcfs", 9):
        "96ace234787279575b8486adbfac9bc6bd90e4ae707021fa2329c9b726491c07",
    ("staggered", "qonductor", 4):
        "ac075f0a1b5b46625c131c55be024664618715711a53f435b9e77aa99a8443a0",
    ("staggered", "qonductor", 9):
        "e902c5550f1d54398366661221d492c4a693d47e4004ebde0f8f1b86a389a869",
    ("staggered", "fcfs", 4):
        "5870be65b022f50e7b4a4c03c2279153c368981b45427eb72cb5545643efddf1",
    ("staggered", "fcfs", 9):
        "85140454580b36cd1c6526e7a05b9f3207205f30f155be13dccb950971ce618f",
    ("mixed", "qonductor", 4):
        "380c44dacc0d4ab5c85b48f33153d0d88d2e25b090b766b9a1d8b201d338a78e",
    ("mixed", "qonductor", 9):
        "310d9ab9642b08038c11a96b5da83f4f8ed8150d03849e46fcfa25e6c633799a",
    ("mixed", "fcfs", 4):
        "ae2c4110372c977cd16d2291ed5632e8a1d0c15966589511f56866d6b6500831",
    ("mixed", "fcfs", 9):
        "e6bc2cddcb347c83e1aead020bf8bed872b422141a962a384eb7376ec106e647",
}


@pytest.mark.parametrize("cell", SYNCHRONOUS_PINS, ids=lambda c: "-".join(map(str, c)))
def test_synchronous_cycle_matches_pinned_digest(cell):
    shape, policy, load_seed = cell
    metrics = run_sharded(
        QonductorScheduler(fake_estimate, seed=5, max_generations=4)
        if policy == "qonductor"
        else BatchedFCFSPolicy(fake_estimate),
        "serial",
        load_seed=load_seed,
        **TRIGGER_SHAPES[shape],
    )
    digest = hashlib.sha256(
        repr(metrics.deterministic_state()).encode()
    ).hexdigest()
    assert digest == SYNCHRONOUS_PINS[cell]
