"""Orchestrator tests: workflows, images, registry, and the four-call
Qonductor API (what ``invoke`` executes is in test_orchestrator_engine)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers.reference_workflow import reference_workflow
from repro.backends import default_fleet
from repro.orchestrator import (
    ExecutionConfig,
    HybridWorkflow,
    HybridWorkflowImage,
    Qonductor,
    ResourceRequest,
    StepKind,
    WorkflowRegistry,
    WorkflowStep,
)
from repro.workloads import ghz_linear

FLEET = ["auckland", "lagos"]


@st.composite
def dag_afters(draw):
    """Each step's ``after`` as indices of earlier steps: late roots
    (empty, or ``None``), fan-in, fan-out and repeated entries."""
    afters = []
    for i in range(draw(st.integers(1, 12))):
        deps = draw(st.lists(st.integers(0, i - 1), max_size=4)) if i else []
        afters.append(None if not deps and draw(st.booleans()) else deps)
    return afters


@pytest.fixture(scope="module")
def qonductor():
    return Qonductor(
        default_fleet(seed=7, names=FLEET), estimator_records=400, seed=2
    )


class TestWorkflow:
    def test_linear_builder_orders_steps(self):
        steps = [
            WorkflowStep("pre", StepKind.CLASSICAL),
            WorkflowStep("q", StepKind.QUANTUM, circuit=ghz_linear(3)),
            WorkflowStep("post", StepKind.CLASSICAL),
        ]
        wf = HybridWorkflow.linear("test", steps)
        assert [s.name for s in wf.topological_steps()] == ["pre", "q", "post"]
        assert len(wf.quantum_steps()) == 1

    def test_quantum_step_requires_circuit(self):
        with pytest.raises(ValueError):
            WorkflowStep("q", StepKind.QUANTUM)

    def test_re_adding_a_step_is_refused_and_changes_nothing(self):
        # add_step(a, after=[b]) on a -> b used to raise "would create a
        # cycle" and then delete a, leaving b alone with no edges.
        wf = HybridWorkflow("r")
        a = wf.add_step(WorkflowStep("a", StepKind.CLASSICAL))
        b = wf.add_step(WorkflowStep("b", StepKind.CLASSICAL), after=[a])
        with pytest.raises(ValueError, match="step 'a' is already in workflow 'r'"):
            wf.add_step(a, after=[b])
        with pytest.raises(ValueError, match="step 'b'"):
            wf.add_step(b)
        assert [s.name for s in wf.topological_steps()] == ["a", "b"]
        assert wf.predecessors(b) == [a] and wf.predecessors(a) == []
        wf.validate()

    def test_missing_dependency_changes_nothing(self):
        wf = HybridWorkflow("m")
        a = wf.add_step(WorkflowStep("a", StepKind.CLASSICAL))
        loose = WorkflowStep("x", StepKind.CLASSICAL)
        with pytest.raises(ValueError, match="dependency 'x'"):
            wf.add_step(WorkflowStep("y", StepKind.CLASSICAL), after=[a, loose])
        assert [s.name for s in wf.steps] == ["a"]

    def test_unknown_dependency(self):
        wf = HybridWorkflow("d")
        loose = WorkflowStep("x", StepKind.CLASSICAL)
        with pytest.raises(ValueError):
            wf.add_step(WorkflowStep("y", StepKind.CLASSICAL), after=[loose])

    def test_empty_workflow_invalid(self):
        with pytest.raises(ValueError):
            HybridWorkflow("e").validate()

    def test_topological_order_is_not_insertion_order(self):
        # Roots first, in insertion order, then what they release: the
        # order invoke keys each quantum step's seed on.
        wf = HybridWorkflow("g")
        a = wf.add_step(WorkflowStep("a", StepKind.CLASSICAL))
        wf.add_step(WorkflowStep("c", StepKind.CLASSICAL), after=[a])
        wf.add_step(WorkflowStep("b", StepKind.CLASSICAL))
        assert [s.name for s in wf.steps] == ["a", "c", "b"]
        assert [s.name for s in wf.topological_steps()] == ["a", "b", "c"]

    @given(dag_afters())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_dag_matches_networkx_reference(self, afters):
        steps = [WorkflowStep(f"s{i}", StepKind.CLASSICAL) for i in range(len(afters))]
        calls = [
            (step, None if deps is None else [steps[j] for j in deps])
            for step, deps in zip(steps, afters)
        ]
        wf = HybridWorkflow("property")
        for step, after in calls:
            assert wf.add_step(step, after=after) is step
        ref_steps, ref_predecessors, ref_topological = reference_workflow(calls)
        assert wf.steps == ref_steps
        assert wf.topological_steps() == ref_topological
        for step in steps:
            assert wf.predecessors(step) == ref_predecessors[step.step_id]


class TestImagesAndRegistry:
    def test_config_from_listing1_dict(self):
        data = {
            "spec": {
                "containers": [
                    {"resources": {"limits": {"nvidia.com/gpu": 1}}},
                    {
                        "resources": {
                            "limits": {"quantum.ibm.com/qpu": 1, "qubits": 20}
                        }
                    },
                ]
            }
        }
        cfg = ExecutionConfig.from_dict(data)
        assert cfg.requests[0].gpus == 1
        assert cfg.requests[1].qpus == 1 and cfg.requests[1].min_qubits == 20
        assert cfg.min_qubits == 20

    @pytest.mark.parametrize(
        "key, value, where",
        [
            ("preference", "fidelity", "Qonductor(preference=)"),
            ("preferred_models", ["falcon"], "estimate_resources(models=)"),
            ("num_plans", 5, "estimate_resources(num_plans=)"),
            ("min_fidelity", 0.9, "estimate_resources(min_fidelity=)"),
        ],
    )
    def test_config_key_nothing_honours_is_refused(self, key, value, where):
        """Regression: these were parsed, stored on the image and never
        read — ``{"preference": "fidelity"}`` was scheduled ``balanced``."""
        with pytest.raises(ValueError) as refused:
            ExecutionConfig.from_dict({key: value, "spec": {"containers": []}})
        assert repr(key) in str(refused.value) and where in str(refused.value)

    def test_resource_request_validation(self):
        with pytest.raises(ValueError):
            ResourceRequest(qpus=-1)

    def test_registry_roundtrip(self):
        reg = WorkflowRegistry()
        wf = HybridWorkflow.linear(
            "w", [WorkflowStep("c", StepKind.CLASSICAL)]
        )
        image = HybridWorkflowImage(workflow=wf, config=ExecutionConfig())
        key = reg.register(image)
        assert reg.get(key) is image
        assert reg.get("w") is image  # untagged lookup
        assert "w" in reg and len(reg) == 1
        reg.remove(key)
        with pytest.raises(KeyError):
            reg.get(key)


class TestQonductorAPI:
    def test_create_deploy_invoke_results(self, qonductor):
        steps = [
            qonductor.classical_step(name="pre", seconds=0.2),
            qonductor.quantum_step(ghz_linear(5), name="ghz", shots=1000,
                                   mitigation="rem"),
            qonductor.classical_step(name="post", seconds=0.3),
        ]
        key = qonductor.create_workflow(steps, name="wf-test")
        assert key in qonductor.registry
        wid = qonductor.invoke(key)
        assert qonductor.workflow_status(wid) == "completed"
        results = qonductor.workflow_results(wid)
        kinds = [s["kind"] for s in results["steps"].values()]
        assert kinds == ["classical", "quantum", "classical"]
        qstep = [s for s in results["steps"].values() if s["kind"] == "quantum"][0]
        assert 0.0 <= qstep["fidelity"] <= 1.0
        assert qstep["qpu"] in FLEET

    def test_classical_cluster_is_two_standard_vms_and_one_high_end(self, qonductor):
        nodes = qonductor.classical_scheduler.nodes
        assert [(n.name, n.tier, n.cores) for n in nodes] == [
            ("vm-std-0", "standard_vm", 16),
            ("vm-std-1", "standard_vm", 16),
            ("vm-hi-0", "highend_vm", 64),
        ]

    def test_deploy_rejects_oversized(self, qonductor):
        key = qonductor.create_workflow(
            [qonductor.quantum_step(ghz_linear(40), name="big")], name="too-big"
        )
        with pytest.raises(ValueError, match="qubits"):
            qonductor.deploy(key)

    def test_unknown_workflow_id(self, qonductor):
        with pytest.raises(KeyError):
            qonductor.workflow_status(999_999)

    def test_estimate_resources(self, qonductor):
        plans = qonductor.estimate_resources(ghz_linear(6), shots=2000, num_plans=3)
        assert plans and all(0 <= p.est_fidelity <= 1 for p in plans)

    def test_result_shape(self, qonductor):
        key = qonductor.create_workflow(
            [
                qonductor.classical_step(lambda: 42, name="pre", seconds=0.5),
                qonductor.quantum_step(ghz_linear(4), name="q", shots=500),
            ],
            name="shape",
        )
        results = qonductor.workflow_results(qonductor.invoke(key))
        assert set(results) == {"status", "steps", "elapsed_seconds", "error"}
        assert results["error"] is None
        pre, q = results["steps"].values()
        assert set(pre) == {
            "kind", "name", "node", "seconds", "output", "start_time", "finish_time",
        }  # fmt: skip
        assert pre["output"] == 42 and pre["seconds"] == 0.5
        assert set(q) == {
            "kind", "name", "qpu", "est_fidelity", "fidelity", "quantum_seconds",
            "shots", "mitigation", "start_time", "finish_time",
        }  # fmt: skip
        assert results["elapsed_seconds"] == pytest.approx(0.5 + q["quantum_seconds"])

    def test_config_refusal_reaches_create_workflow(self, qonductor):
        steps = [qonductor.quantum_step(ghz_linear(3), name="q")]
        with pytest.raises(ValueError, match="preference"):
            qonductor.create_workflow(steps, {"preference": "fidelity"}, name="pref")
        assert "pref:latest" not in qonductor.registry

    def test_failed_run_says_why(self, qonductor):
        """Regression: ``WorkflowRun.error`` never reached the client."""
        key = qonductor.create_workflow(
            [qonductor.classical_step(name="huge", cores=10_000)], name="huge"
        )
        wid = qonductor.invoke(key)
        assert qonductor.workflow_status(wid) == "failed"
        assert qonductor.workflow_results(wid) == {
            "status": "failed",
            "steps": {},
            "elapsed_seconds": 0.0,
            "error": "no classical node satisfies step 'huge'",
        }

    def test_raising_step_fn_fails_the_run_and_frees_its_node(self, qonductor):
        key = qonductor.create_workflow(
            [
                qonductor.classical_step(name="pre", seconds=0.2),
                qonductor.classical_step(lambda: 1 / 0, name="divide", cores=4),
                qonductor.classical_step(name="never"),
            ],
            name="raises",
        )
        results = qonductor.workflow_results(qonductor.invoke(key))
        assert results["status"] == "failed"
        assert "'divide'" in results["error"] and "ZeroDivisionError" in results["error"]
        assert [s["name"] for s in results["steps"].values()] == ["pre"]
        assert results["elapsed_seconds"] == pytest.approx(0.2)
        assert all(n.alloc_cores == 0 for n in qonductor.classical_scheduler.nodes)

    def test_quantum_step_no_online_qpu_takes_fails_the_run(self, qonductor):
        key = qonductor.create_workflow(
            [qonductor.quantum_step(ghz_linear(10), name="wide")], name="offline"
        )
        auckland = qonductor.fleet[0]  # the only QPU wide enough
        auckland.online = False
        try:
            results = qonductor.workflow_results(qonductor.invoke(key))
        finally:
            auckland.online = True
        assert results["status"] == "failed" and results["steps"] == {}
        assert results["error"] == "no QPU took quantum step 'wide' (10 qubits)"
        assert qonductor.workflow_results(qonductor.invoke(key))["status"] == "completed"

    def test_engine_bug_propagates(self, qonductor, monkeypatch):
        """Only what a step can report ends a run ``failed``; an error
        inside the engine is not filed as a workflow failure."""
        from repro.cloud import CloudSimulator

        def broken(self, apps):
            raise RuntimeError("engine bug")

        monkeypatch.setattr(CloudSimulator, "run", broken)
        key = qonductor.create_workflow(
            [qonductor.quantum_step(ghz_linear(3), name="q")], name="bug"
        )
        with pytest.raises(RuntimeError, match="engine bug"):
            qonductor.invoke(key)

    def test_deploy_refuses_empty_and_registers_nothing(self, qonductor):
        """Regression: an empty workflow deployed fine, then ``invoke``
        raised and left the run ``deploy`` had registered ``pending``."""
        fine = qonductor.create_workflow(
            [qonductor.classical_step(name="ok")], name="fine"
        )
        before = qonductor.deploy(fine)
        key = qonductor.create_workflow(HybridWorkflow("empty"))
        with pytest.raises(ValueError, match="empty"):
            qonductor.deploy(key)
        with pytest.raises(ValueError, match="empty"):
            qonductor.invoke(key)
        assert qonductor.deploy(fine) == before + 1

    def test_negative_seconds_refused(self, qonductor):
        """Regression: ``seconds=-5.0`` completed with ``finish_time`` -5.0
        and moved the deployment clock backwards."""
        with pytest.raises(ValueError, match=r"step 'back'.*seconds.*-5\.0"):
            qonductor.classical_step(name="back", seconds=-5.0)
        for seconds in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                qonductor.classical_step(name="never", seconds=seconds)

    def test_uncallable_fn_refused(self):
        """Regression: a string ``fn`` completed with output ``None``."""
        with pytest.raises(ValueError, match="step 'bad'.*'not callable'"):
            WorkflowStep("bad", StepKind.CLASSICAL, fn="not callable")

    def test_negative_resources_refused(self, qonductor):
        """Regression: ``cores=-4`` was accepted."""
        with pytest.raises(ValueError, match="step 'neg'.*cores.*-4"):
            qonductor.classical_step(name="neg", cores=-4)
        for key in ("memory_gb", "gpus"):
            with pytest.raises(ValueError, match=f"step 'neg'.*{key}.*-1"):
                qonductor.classical_step(name="neg", **{key: -1})
        step = qonductor.classical_step(name="zero", seconds=0.0, cores=0, memory_gb=0, gpus=0)
        assert step.requirements["seconds"] == 0.0

    def test_one_run_id_per_invoke(self, qonductor):
        """Regression: every invoke burned two ids and left none pending
        only by re-labelling the second run as the first."""
        key = qonductor.create_workflow(
            [qonductor.classical_step(name="tick", seconds=0.1)], name="ids"
        )
        first = qonductor.invoke(key)
        assert [qonductor.invoke(key), qonductor.invoke(key)] == [first + 1, first + 2]
        for wid in (first, first + 1, first + 2):
            assert qonductor.workflow_status(wid) == "completed"
