"""One execution path: ``Qonductor.invoke`` runs its quantum steps
through ``CloudSimulator``.

* a seeded invoke equals, field for field, the same arrival pushed
  through a hand-built simulator with the same seed, trigger and devices,
  with the deployment's cycles run plainly and through the pickling
  double;
* two fresh deployments running the same invokes return equal results;
* the DAG shapes: a chain, a fan-out, overlapping branches, and a second
  invoke over the device state the first one left;
* nothing under ``orchestrator/`` schedules or dispatches on its own (AST
  guard, with a sample proving the guard sees what it forbids).
"""

import ast
import math
from pathlib import Path

import pytest

import repro
from helpers.determinism import PicklingSerialExecutor
from repro.backends import default_fleet
from repro.cloud import (
    CloudSimulator,
    ExecutionModel,
    FleetShard,
    HybridApplication,
    QuantumJob,
    SerialCycleExecutor,
    SimulatedQPU,
    SimulationConfig,
)
from repro.estimator import ResourceEstimator
from repro.orchestrator import HybridWorkflow, Qonductor, StepKind, WorkflowStep
from repro.scheduler import QonductorScheduler, SchedulingTrigger
from repro.workloads import ghz_linear

FLEET = ["auckland", "lagos"]  # 27 and 7 qubits
SEED = 2


def _fleet():
    return default_fleet(seed=7, names=FLEET)


def _deployment():
    """A fresh deployment: devices, clock, caches, workflow IDs and the
    estimator (trained on 400 records, ~0.15 s) all start over."""
    return Qonductor(_fleet(), estimator_records=400, seed=SEED)


@pytest.fixture
def deployment():
    return _deployment()


def _classical(name, seconds):
    return WorkflowStep(name, StepKind.CLASSICAL, requirements={"seconds": seconds})


def _quantum(name, width=5, mitigation="none"):
    return WorkflowStep(
        name, StepKind.QUANTUM, circuit=ghz_linear(width), shots=1000, mitigation=mitigation
    )


def _invoke(qonductor, workflow_or_steps, name="wf"):
    wid = qonductor.invoke(qonductor.create_workflow(workflow_or_steps, name=name))
    results = qonductor.workflow_results(wid)
    assert results["status"] == "completed", results["error"]
    return results, {s["name"]: s for s in results["steps"].values()}


@pytest.mark.parametrize(
    "executor", [SerialCycleExecutor, PicklingSerialExecutor], ids=["serial", "pickled"]
)
def test_invoke_is_the_same_arrival_through_a_hand_built_simulator(
    deployment, executor, monkeypatch
):
    from repro.orchestrator.api import step_seed

    # The simulator ``invoke`` builds runs its cycles on ``executor``; the
    # hand-built one below names plain serial.
    init = CloudSimulator.__init__

    def init_with_executor(self, *args, **kwargs):
        kwargs.setdefault("cycle_executor", executor())
        init(self, *args, **kwargs)

    monkeypatch.setattr(CloudSimulator, "__init__", init_with_executor)
    steps = [_classical("pre", 0.2), _quantum("ghz", mitigation="rem"), _classical("post", 0.3)]
    results, by_name = _invoke(deployment, steps)
    step = by_name["ghz"]

    # By hand: the arrival becomes ready when "pre" ends, on fresh devices.
    job = QuantumJob.from_circuit(ghz_linear(5), shots=1000, mitigation="rem")
    policy = QonductorScheduler(
        deployment.estimator.cached(), preference="balanced", seed=SEED
    )
    # The cycle fires on the arrival; nothing else — no interval deadline,
    # no sample — happens before the horizon, one float past it.
    horizon = math.nextafter(0.2, math.inf)
    trigger = SchedulingTrigger(queue_limit=1, interval_seconds=horizon)
    shard = FleetShard(0, [SimulatedQPU(q) for q in _fleet()], policy, trigger)
    sim = CloudSimulator(
        shards=[shard],
        cycle_executor="serial",
        execution_model=ExecutionModel(seed=SEED),
        config=SimulationConfig(
            duration_seconds=horizon,
            sample_every_seconds=horizon,
            # workflow 1 of the deployment, step 1 of [pre, ghz, post]
            seed=step_seed(SEED, 1, 1),
        ),
    )
    metrics = sim.run([HybridApplication(job, arrival_time=0.2)])
    assert metrics.dispatched_jobs == 1 and metrics.scheduling_cycles == 1
    assert metrics.events_processed == 1  # the arrival; its cycle runs inside it
    qpu = shard.backend_by_name[job.assigned_qpu].qpu
    est_fidelity, _ = policy.estimate_fn.estimate_block([job], [qpu])
    assert {
        "qpu": step["qpu"],
        "fidelity": step["fidelity"],
        "quantum_seconds": step["quantum_seconds"],
        "start_time": step["start_time"],
        "finish_time": step["finish_time"],
        "est_fidelity": step["est_fidelity"],
    } == {
        "qpu": job.assigned_qpu,
        "fidelity": job.fidelity,
        "quantum_seconds": job.quantum_seconds,
        "start_time": job.start_time,
        "finish_time": job.finish_time,
        "est_fidelity": est_fidelity[0, 0],
    }
    # The workflow's own classical steps carry the classical time.
    assert results["elapsed_seconds"] == (0.2 + step["quantum_seconds"]) + 0.3
    assert deployment.clock == results["elapsed_seconds"]


def test_a_deployment_trains_the_estimator_of_its_fleet_and_seed(deployment):
    """The same as training on a fresh copy of the fleet with a fresh
    execution model of the deployment's seed: every estimate, bit for
    bit."""
    trained = ResourceEstimator.train_for_fleet(
        _fleet(), num_records=400, execution_model=ExecutionModel(seed=SEED), seed=SEED
    )
    jobs = [
        QuantumJob.from_circuit(ghz_linear(w), shots=1000, mitigation=m)
        for w, m in [(3, "none"), (5, "rem"), (7, "zne+rem")]
    ]
    got = deployment.estimator.estimate_block(jobs, deployment.fleet)
    want = trained.estimate_block(jobs, _fleet())
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_two_fresh_deployments_return_equal_results():
    chain = [_classical("pre", 0.2), _quantum("a"), _quantum("b", mitigation="rem")]
    single = [_quantum("c", width=7)]

    def session():
        qonductor = _deployment()
        return [
            _invoke(qonductor, steps, name=name)[0]
            for name, steps in [("chain", chain), ("single", single), ("again", chain)]
        ]

    first, second = session(), session()
    assert first == second
    # ...and no invoke replays another's noise: same steps, a later run.
    def draws(run):
        steps = [s for s in run["steps"].values() if s["kind"] == "quantum"]
        return {(s["fidelity"], s["quantum_seconds"]) for s in steps}

    assert not draws(first[0]) & draws(first[2])


def test_step_seed_is_keyed_by_identity():
    from repro.orchestrator.api import step_seed

    seeds = {
        step_seed(d, w, s) for d in (0, 1, 2) for w in (1, 2, 3) for s in (0, 1, 2)
    }
    assert len(seeds) == 27
    assert step_seed(2, 1, 1) == step_seed(2, 1, 1)


class TestDagShapes:
    def test_chain_q2_starts_when_q1_finishes_on_its_own_noise_stream(self, deployment):
        workflow = HybridWorkflow("chain")
        q1 = workflow.add_step(_quantum("q1", width=10))
        workflow.add_step(_quantum("q2", width=10), after=[q1])
        results, by_name = _invoke(deployment, workflow)
        q1, q2 = by_name["q1"], by_name["q2"]
        assert q1["start_time"] == 0.0
        assert q2["start_time"] == q1["finish_time"]
        # Same circuit, shots and device (only auckland is wide enough):
        # a replayed stream would repeat the draw.
        assert q1["qpu"] == q2["qpu"] == "auckland"
        assert (q1["fidelity"], q1["quantum_seconds"]) != (
            q2["fidelity"],
            q2["quantum_seconds"],
        )
        assert results["elapsed_seconds"] == q2["finish_time"]

    def test_fan_out_arrives_together_and_queues_on_one_device(self, deployment):
        workflow = HybridWorkflow("fan-out")
        pre = workflow.add_step(_classical("pre", 0.2))
        workflow.add_step(_quantum("qa", width=10), after=[pre])
        workflow.add_step(_quantum("qb", width=10), after=[pre])
        results, by_name = _invoke(deployment, workflow)
        qa, qb = by_name["qa"], by_name["qb"]
        # Both became ready at 0.2; the device serves them one at a time.
        assert qa["start_time"] == 0.2
        assert qb["start_time"] == qa["finish_time"]
        assert qa["qpu"] == qb["qpu"] == "auckland"
        assert results["elapsed_seconds"] == qb["finish_time"]

    def test_parallel_branches_overlap_in_simulated_time(self, deployment):
        workflow = HybridWorkflow("branches")
        pre = workflow.add_step(_classical("pre", 0.2))
        quantum = workflow.add_step(_quantum("q"), after=[pre])
        slow = workflow.add_step(_classical("slow", 50.0), after=[pre])
        workflow.add_step(_classical("post", 0.3), after=[quantum, slow])
        results, by_name = _invoke(deployment, workflow)
        assert by_name["q"]["start_time"] == by_name["slow"]["start_time"] == 0.2
        assert by_name["q"]["finish_time"] < by_name["slow"]["finish_time"]
        assert by_name["post"]["start_time"] == by_name["slow"]["finish_time"]
        assert results["elapsed_seconds"] == (0.2 + 50.0) + 0.3

    def test_second_invoke_runs_over_the_device_state_the_first_left(self, deployment):
        """``invoke`` is synchronous — the deployment clock moves to the
        run's finish — so the next run starts after the first's work has
        drained; the devices are the same objects, and backlog on one
        (here: placed by hand, as another tenant's work would be) delays
        the step that picks it."""
        steps = [_quantum("q", width=10)]
        first, _ = _invoke(deployment, steps, name="first")
        (q1,) = first["steps"].values()
        auckland = deployment.backends[0]
        assert auckland.free_at == q1["finish_time"] == deployment.clock

        auckland.free_at += 40.0
        second, _ = _invoke(deployment, steps, name="second")
        (q2,) = second["steps"].values()
        assert q2["start_time"] == q1["finish_time"] + 40.0
        assert second["elapsed_seconds"] == pytest.approx(40.0 + q2["quantum_seconds"])
        assert auckland.jobs_executed == 2
        assert auckland.busy_seconds == q1["quantum_seconds"] + q2["quantum_seconds"]
        assert auckland.free_at == q2["finish_time"] == deployment.clock


ORCHESTRATOR = Path(repro.__file__).parent / "orchestrator"


def _engine_calls(path: Path) -> list[str]:
    """Calls under ``orchestrator/`` that would schedule or dispatch a
    quantum job without the engine: ``.execute(``, ``.begin_cycle(``,
    ``.finish_cycle(``, ``.schedule(`` on anything but the classical
    scheduler, and ``default_rng(``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        receiver = ast.unparse(getattr(node.func, "value", node.func))
        if name in ("execute", "begin_cycle", "finish_cycle", "default_rng") or (
            name == "schedule" and not receiver.endswith("classical_scheduler")
        ):
            found.append(f"{path.name}:{node.lineno}")
    return found


class TestOneWayToADevice:
    def test_orchestrator_never_schedules_or_dispatches(self):
        files = sorted(ORCHESTRATOR.glob("*.py"))
        assert files
        assert [hit for path in files for hit in _engine_calls(path)] == []

    def test_guards_see_what_they_forbid(self, tmp_path):
        sample = tmp_path / "sample.py"
        sample.write_text(
            "record = backend.execute(job, now, model, rng)\n"
            "plan = self.scheduler.begin_cycle(jobs, qpus)\n"
            "self.scheduler.finish_cycle(plan, None)\n"
            "self.scheduler.schedule([job], qpus, waiting)\n"
            "node = self.classical_scheduler.schedule(req)\n"
            "rng = np.random.default_rng(seed)\n"
            "rng = default_rng(seed)\n"
            "CloudSimulator(shards=[shard]).run(apps)\n"
        )
        assert _engine_calls(sample) == [f"sample.py:{n}" for n in (1, 2, 3, 4, 6, 7)]
