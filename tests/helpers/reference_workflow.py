"""The workflow DAG as it was written on networkx.

``repro.orchestrator.workflow.HybridWorkflow`` keeps its steps and their
predecessors in plain lists; this module replays the same ``add_step``
calls on a ``networkx.DiGraph``, exactly as the class did when it held
one: a node per step (insertion order), an edge per dependency (a repeated
one is one edge), ``topological_sort`` for the execution order.  The order
is observable — ``Qonductor.invoke`` keys each quantum step's seed on its
ordinal — so ``tests/test_orchestrator.py`` holds the class to this
reference with ``==``.
"""

import networkx as nx

__all__ = ["reference_workflow"]


def reference_workflow(calls):
    """Replay ``calls``, a list of ``(step, after)`` pairs in ``add_step``
    order, on a ``DiGraph``.  A call ``add_step`` refuses (the step is
    already present, or a dependency is missing) raises ``ValueError`` and
    leaves the graph as it was.

    Returns ``(steps, predecessors, topological)``: the steps in insertion
    order, each step id's predecessor steps, and the steps in
    ``nx.topological_sort`` order.
    """
    graph = nx.DiGraph()
    for step, after in calls:
        if step.step_id in graph:
            raise ValueError(f"step {step.name!r} is already in the workflow")
        deps = after or []
        for dep in deps:
            if dep.step_id not in graph:
                raise ValueError(f"dependency {dep.name!r} not in workflow")
        graph.add_node(step.step_id, step=step)
        for dep in deps:
            graph.add_edge(dep.step_id, step.step_id)
    step_of = nx.get_node_attributes(graph, "step")
    steps = [step_of[n] for n in graph.nodes]
    predecessors = {n: [step_of[p] for p in graph.predecessors(n)] for n in graph.nodes}
    topological = [step_of[n] for n in nx.topological_sort(graph)]
    return steps, predecessors, topological
