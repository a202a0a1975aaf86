"""Orchestrator tests: workflows, images, registry, monitor, membership,
Raft, workers, job manager, and the four-call Qonductor API."""

import pytest

from repro.backends import default_fleet
from repro.orchestrator import (
    ExecutionConfig,
    HybridWorkflow,
    HybridWorkflowImage,
    Qonductor,
    RaftCluster,
    ResourceRequest,
    Role,
    StepKind,
    SystemMonitor,
    WorkflowRegistry,
    WorkflowStep,
)
from repro.workloads import ghz_linear

FLEET = ["auckland", "lagos"]


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

    def test_cycle_rejected(self):
        wf = HybridWorkflow("c")
        a = wf.add_step(WorkflowStep("a", StepKind.CLASSICAL))
        b = wf.add_step(WorkflowStep("b", StepKind.CLASSICAL), after=[a])
        import networkx as nx

        wf.graph.add_edge(b.step_id, a.step_id)
        with pytest.raises(ValueError):
            wf.validate()

    def test_unknown_dependency(self):
        wf = HybridWorkflow("d")
        loose = WorkflowStep("x", StepKind.CLASSICAL)
        with pytest.raises(ValueError):
            wf.add_step(WorkflowStep("y", StepKind.CLASSICAL), after=[loose])

    def test_empty_workflow_invalid(self):
        with pytest.raises(ValueError):
            HybridWorkflow("e").validate()


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


class TestMonitor:
    def test_put_get_versions(self):
        mon = SystemMonitor()
        r1 = mon.put("ns", "k", 1)
        r2 = mon.put("ns", "k", 2)
        assert r2 > r1
        assert mon.get("ns", "k") == 2
        assert mon.version("ns", "k") == r2

    def test_delete_and_default(self):
        mon = SystemMonitor()
        mon.put("ns", "k", 1)
        assert mon.delete("ns", "k")
        assert not mon.delete("ns", "k")
        assert mon.get("ns", "k", default="d") == "d"

    def test_watchers_notified(self):
        mon = SystemMonitor()
        events = []
        mon.watch(events.append)
        mon.put("a", "x", 1)
        mon.delete("a", "x")
        assert len(events) == 2 and events[1].deleted

    def test_snapshot_restore(self):
        mon = SystemMonitor()
        mon.put("ns", "k", {"v": 1})
        snap = mon.snapshot()
        other = SystemMonitor()
        other.restore(snap)
        assert other.get("ns", "k") == {"v": 1}
        assert other.revision == mon.revision


class TestRaft:
    def test_initial_leader(self):
        cluster = RaftCluster(f=1, seed=0)
        assert cluster.leader().name == "replica0"
        assert len(cluster.nodes) == 3

    def test_failover_elects_new_leader(self):
        cluster = RaftCluster(f=1, seed=0)
        cluster.fail("replica0")
        leader = cluster.ensure_leader()
        assert leader is not None and leader.name != "replica0"
        assert leader.role is Role.LEADER

    def test_no_quorum_no_leader(self):
        cluster = RaftCluster(f=1, seed=0)
        cluster.fail("replica0")
        cluster.fail("replica1")
        assert cluster.ensure_leader() is None

    def test_recovered_node_rejoins_as_follower(self):
        cluster = RaftCluster(f=1, seed=0)
        cluster.fail("replica0")
        cluster.ensure_leader()
        cluster.recover("replica0")
        node = cluster.node("replica0")
        assert node.role is Role.FOLLOWER
        assert node.term == cluster.leader().term

    def test_replication_ships_state(self):
        cluster = RaftCluster(f=1, seed=0)
        acks = cluster.replicate({"x": 1})
        assert acks == 3
        assert all(n.state == {"x": 1} for n in cluster.nodes)

    def test_one_vote_per_term(self):
        cluster = RaftCluster(f=1, seed=0)
        voter = cluster.node("replica2")
        assert voter.request_vote("a", term=5)
        assert not voter.request_vote("b", term=5)
        assert voter.request_vote("b", term=6)


class TestQonductorAPI:
    def test_create_deploy_invoke_results(self, qonductor):
        steps = [
            qonductor.classical_step(name="pre", seconds=0.2),
            qonductor.quantum_step(ghz_linear(5), name="ghz", shots=1000,
                                   mitigation="rem"),
            qonductor.classical_step(name="post", seconds=0.3),
        ]
        key = qonductor.create_workflow(steps, name="wf-test")
        assert key in qonductor.list_images()
        wid = qonductor.invoke(key)
        assert qonductor.workflow_status(wid) == "completed"
        results = qonductor.workflow_results(wid)
        kinds = [s["kind"] for s in results["steps"].values()]
        assert kinds == ["classical", "quantum", "classical"]
        qstep = [s for s in results["steps"].values() if s["kind"] == "quantum"][0]
        assert 0.0 <= qstep["fidelity"] <= 1.0
        assert qstep["qpu"] in FLEET

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

    def test_state_replicated_after_invoke(self, qonductor):
        key = qonductor.create_workflow(
            [qonductor.quantum_step(ghz_linear(3), name="q")], name="repl"
        )
        qonductor.invoke(key)
        leader = qonductor.control_plane.leader()
        assert leader.state["revision"] == qonductor.monitor.revision

    def test_leader_failover_keeps_serving(self, qonductor):
        qonductor.control_plane.fail(qonductor.control_plane.leader().name)
        key = qonductor.create_workflow(
            [qonductor.quantum_step(ghz_linear(3), name="q")], name="failover"
        )
        wid = qonductor.invoke(key)
        assert qonductor.workflow_status(wid) == "completed"
        assert qonductor.control_plane.leader() is not None

    def test_monitor_holds_device_state(self, qonductor):
        static = qonductor.monitor.items("qpu_static")
        assert set(static) == set(FLEET)
        assert static["lagos"]["num_qubits"] == 7
