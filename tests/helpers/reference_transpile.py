"""The transpiler's graph passes as they were written on networkx.

``src/`` keeps the coupling graph's facts as plain Python (neighbour lists,
hop distances); this module keeps the same passes on ``networkx.Graph``,
unchanged: :func:`distance_matrix`, :func:`route`, :func:`_interaction_path`,
:func:`linear_path_layout` and :func:`noise_aware_layout`, plus
:func:`reference_transpile`, the pipeline of ``repro.transpiler.transpile``
with those passes swapped in.  ``tests/test_transpile_oracle.py`` holds
``src/`` to it with ``==``: every tie in the router and the two layouts
breaks on networkx's neighbour order (first-seen edge order, duplicates
dropped), so any other order shows up as a different op list.

networkx is a test dependency: this module and ``reference_workflow.py``
are the only ones that import it.
"""

import networkx as nx
import numpy as np

from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate
from repro.simulation.noise import NoiseModel
from repro.simulation.schedule import schedule_circuit
from repro.transpiler.decompose import decompose_circuit, fuse_1q_runs
from repro.transpiler.layout import Layout, trivial_layout
from repro.transpiler.routing import RoutedCircuit

__all__ = [
    "distance_matrix",
    "linear_path_layout",
    "noise_aware_layout",
    "reference_transpile",
    "route",
    "summarize",
]

LOOKAHEAD = 8
_DECAY = 0.6


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------


def distance_matrix(coupling: list[tuple[int, int]], num_qubits: int) -> np.ndarray:
    """All-pairs shortest-path hop counts over the coupling graph."""
    graph = nx.Graph()
    graph.add_nodes_from(range(num_qubits))
    graph.add_edges_from(coupling)
    dist = np.full((num_qubits, num_qubits), np.inf)
    for src, lengths in nx.all_pairs_shortest_path_length(graph):
        for dst, d in lengths.items():
            dist[src, dst] = d
    return dist


def route(
    circuit: Circuit,
    coupling: list[tuple[int, int]],
    num_physical: int,
    initial_mapping: dict[int, int] | None = None,
) -> RoutedCircuit:
    """Insert SWAPs so every 2q gate acts on coupled physical qubits.

    ``circuit`` is in *logical* indices; the returned circuit is in
    *physical* indices. ``initial_mapping`` defaults to identity.
    """
    if circuit.num_qubits > num_physical:
        raise ValueError("circuit wider than device")
    graph = nx.Graph()
    graph.add_nodes_from(range(num_physical))
    graph.add_edges_from(coupling)
    dist = distance_matrix(coupling, num_physical)

    l2p = dict(initial_mapping) if initial_mapping else {
        q: q for q in range(circuit.num_qubits)
    }
    # Check the initial region is routable at all.
    for lq, p in l2p.items():
        if not 0 <= p < num_physical:
            raise ValueError(f"initial mapping places {lq} at invalid {p}")

    out = Circuit(num_physical, circuit.name)
    out.metadata = dict(circuit.metadata)
    initial = dict(l2p)
    num_swaps = 0

    # Pending 2q gates (logical pairs) in program order, used for lookahead.
    pending_2q: list[tuple[int, int]] = [
        (g.qubits[0], g.qubits[1])
        for g in circuit.ops
        if g.is_unitary and g.num_qubits == 2
    ]
    next_2q = 0

    def lookahead_cost(mapping: dict[int, int], start: int) -> float:
        cost, weight = 0.0, 1.0
        for a, b in pending_2q[start : start + LOOKAHEAD]:
            d = dist[mapping[a], mapping[b]]
            if np.isinf(d):
                return float("inf")
            cost += weight * d
            weight *= _DECAY
        return cost

    for gate in circuit.ops:
        if gate.name == "barrier":
            out.append(Gate("barrier", tuple(l2p[q] for q in gate.qubits)))
            continue
        if gate.num_qubits <= 1 or not gate.is_unitary:
            out.append(gate.remap(l2p))
            continue
        a, b = gate.qubits
        pa, pb = l2p[a], l2p[b]
        if np.isinf(dist[pa, pb]):
            raise ValueError(
                f"qubits {pa} and {pb} are disconnected on this coupling map"
            )
        while dist[l2p[a], l2p[b]] > 1:
            pa, pb = l2p[a], l2p[b]
            p2l = {p: lq for lq, p in l2p.items()}
            # Candidate swaps: edges incident to either endpoint.
            best_swap, best_cost = None, float("inf")
            for endpoint in (pa, pb):
                for nb in graph.neighbors(endpoint):
                    trial = dict(l2p)
                    le = p2l.get(endpoint)
                    ln = p2l.get(nb)
                    if le is not None:
                        trial[le] = nb
                    if ln is not None:
                        trial[ln] = endpoint
                    cost = dist[trial[a], trial[b]] * 2.0 + lookahead_cost(
                        trial, next_2q
                    )
                    if cost < best_cost:
                        best_cost, best_swap = cost, (endpoint, nb, trial)
            assert best_swap is not None
            endpoint, nb, trial = best_swap
            out.append(Gate("swap", (endpoint, nb)))
            num_swaps += 1
            l2p = trial
        out.append(gate.remap(l2p))
        next_2q += 1

    return RoutedCircuit(
        circuit=out,
        initial_mapping=initial,
        final_mapping=dict(l2p),
        num_swaps=num_swaps,
    )


# ----------------------------------------------------------------------
# layout
# ----------------------------------------------------------------------


def _edge_quality(noise_model: NoiseModel, a: int, b: int) -> float:
    """Quality score of a physical link: survival of one CX + readouts."""
    gn = noise_model.gate_noise("cx", (a, b))
    qa, qb = noise_model.qubits[a], noise_model.qubits[b]
    return (1.0 - gn.error) * (1.0 - 0.5 * (qa.readout_error + qb.readout_error))


def _interaction_path(circuit: Circuit) -> list[int] | None:
    """If the 2q-interaction graph is a simple path (or ring), return the
    logical qubits in path order; else ``None``.

    Rings are opened at their weakest (least used) edge. Chain-structured
    workloads (GHZ ladders, linear-entanglement ansatze, QAOA rings, adders)
    dominate real suites, and mapping them along a physical path eliminates
    nearly all routing — mirroring what production layout passes achieve.
    """
    g = nx.Graph()
    g.add_nodes_from(range(circuit.num_qubits))
    weights: dict[tuple[int, int], int] = {}
    for gate in circuit.ops:
        if gate.is_unitary and gate.num_qubits == 2:
            e = (min(gate.qubits), max(gate.qubits))
            weights[e] = weights.get(e, 0) + 1
            g.add_edge(*e)
    if g.number_of_edges() == 0 or not nx.is_connected(g):
        return None
    degrees = dict(g.degree())
    if max(degrees.values()) > 2:
        return None
    ends = [q for q, d in degrees.items() if d == 1]
    if len(ends) == 0:  # ring: drop the least-used edge
        weakest = min(weights, key=weights.get)
        g.remove_edge(*weakest)
        ends = [q for q, d in g.degree() if d == 1]
    if len(ends) != 2:
        return None
    path = [ends[0]]
    prev = None
    while len(path) < circuit.num_qubits:
        nbrs = [x for x in g.neighbors(path[-1]) if x != prev]
        if not nbrs:
            return None
        prev = path[-1]
        path.append(nbrs[0])
    return path


def _best_physical_path(
    graph: nx.Graph,
    length: int,
    quality: dict[tuple[int, int], float],
) -> list[int] | None:
    """Greedy DFS for a high-quality simple path of ``length`` nodes."""
    def extend(path: list[int], seen: set[int]) -> list[int] | None:
        if len(path) == length:
            return path
        nbrs = sorted(
            (n for n in graph.neighbors(path[-1]) if n not in seen),
            key=lambda n: -quality.get((min(path[-1], n), max(path[-1], n)), 0.0),
        )
        for nb in nbrs:
            seen.add(nb)
            result = extend(path + [nb], seen)
            if result is not None:
                return result
            seen.remove(nb)
        return None

    # Try starts in quality order of their best incident edge.
    starts = sorted(
        graph.nodes(),
        key=lambda v: -max(
            (quality.get((min(v, n), max(v, n)), 0.0) for n in graph.neighbors(v)),
            default=0.0,
        ),
    )
    for start in starts:
        found = extend([start], {start})
        if found is not None:
            return found
    return None


def linear_path_layout(
    circuit: Circuit,
    coupling: list[tuple[int, int]],
    noise_model: NoiseModel,
    num_physical: int,
) -> Layout | None:
    """Map a path-structured circuit along a physical path; ``None`` when
    the circuit is not chain-like or no long-enough path exists."""
    order = _interaction_path(circuit)
    if order is None:
        return None
    graph = nx.Graph()
    graph.add_nodes_from(range(num_physical))
    graph.add_edges_from(coupling)
    quality = {
        (min(a, b), max(a, b)): _edge_quality(noise_model, a, b)
        for a, b in graph.edges()
    }
    path = _best_physical_path(graph, len(order), quality)
    if path is None:
        return None
    mapping = {logical: path[i] for i, logical in enumerate(order)}
    # Unused logical qubits (no 2q interactions) take any free seats.
    free = [p for p in range(num_physical) if p not in set(path)]
    for q in range(circuit.num_qubits):
        if q not in mapping:
            mapping[q] = free.pop()
    return Layout(mapping, num_physical)


def noise_aware_layout(
    circuit: Circuit,
    coupling: list[tuple[int, int]],
    noise_model: NoiseModel,
    num_physical: int,
) -> Layout:
    """Greedy best-region layout.

    1. Seed at the best edge; grow a connected region of the circuit's
       width, always adding the neighbouring physical qubit with the best
       incident-link quality.
    2. Assign logical qubits (sorted by 2q-interaction degree) to region
       seats (sorted by internal connectivity then quality).
    """
    n_logical = circuit.num_qubits
    if n_logical > num_physical:
        raise ValueError(
            f"circuit needs {n_logical} qubits, device has {num_physical}"
        )
    graph = nx.Graph()
    graph.add_nodes_from(range(num_physical))
    graph.add_edges_from(coupling)
    if n_logical == num_physical and graph.number_of_edges() == 0:
        return trivial_layout(circuit, num_physical)

    quality = {
        (min(a, b), max(a, b)): _edge_quality(noise_model, a, b)
        for a, b in graph.edges()
    }

    if quality:
        seed_edge = max(quality, key=quality.get)
        region = {seed_edge[0], seed_edge[1]}
    else:
        region = {0}
    while len(region) < n_logical:
        best_node, best_score = None, -1.0
        # Sorted: best_node ties break on score only, so the expansion
        # order must not depend on set iteration order.
        for node in sorted(region):
            for nb in graph.neighbors(node):
                if nb in region:
                    continue
                score = max(
                    quality.get((min(nb, x), max(nb, x)), 0.0)
                    for x in region
                    if graph.has_edge(nb, x)
                )
                if score > best_score:
                    best_node, best_score = nb, score
        if best_node is None:  # disconnected graph: take any free qubit
            free = [q for q in range(num_physical) if q not in region]
            if not free:
                break
            best_node = free[0]
        region.add(best_node)

    # Rank physical seats: connectivity within the region, then quality.
    seats = sorted(
        region,
        key=lambda p: (
            -sum(1 for nb in graph.neighbors(p) if nb in region),
            -max(
                (
                    quality.get((min(p, nb), max(p, nb)), 0.0)
                    for nb in graph.neighbors(p)
                    if nb in region
                ),
                default=0.0,
            ),
        ),
    )
    # Rank logical qubits by 2q-gate participation.
    degree = np.zeros(n_logical)
    for g in circuit.ops:
        if g.is_unitary and g.num_qubits == 2:
            degree[g.qubits[0]] += 1
            degree[g.qubits[1]] += 1
    order = np.argsort(-degree, kind="stable")
    mapping = {int(order[i]): int(seats[i]) for i in range(n_logical)}
    return Layout(mapping, num_physical)


# ----------------------------------------------------------------------
# the pipeline
# ----------------------------------------------------------------------


def reference_transpile(circuit: Circuit, target) -> dict:
    """``repro.transpiler.transpile`` on the passes above, as a plain dict
    of what a ``TranspileResult`` carries: the physical ops as
    ``(name, qubits, params)``, both mappings, ``num_swaps``, the schedule
    as ``(index, name, qubits, start_ns, duration_ns)`` and its length."""
    if circuit.num_qubits > target.num_qubits:
        raise ValueError(
            f"{circuit.num_qubits}-qubit circuit does not fit "
            f"{target.num_qubits}-qubit target"
        )
    basis = decompose_circuit(circuit)
    layout = linear_path_layout(
        basis, list(target.coupling), target.noise_model, target.num_qubits
    )
    if layout is None:
        layout = noise_aware_layout(
            basis, list(target.coupling), target.noise_model, target.num_qubits
        )
    routed = route(
        basis,
        list(target.coupling),
        target.num_qubits,
        initial_mapping=layout.logical_to_physical,
    )
    physical = fuse_1q_runs(decompose_circuit(routed.circuit))
    sched = schedule_circuit(physical, target.noise_model)
    return summarize(
        physical,
        routed.initial_mapping,
        routed.final_mapping,
        routed.num_swaps,
        sched,
        sched.duration_ns,
    )


def summarize(
    circuit, initial_mapping, final_mapping, num_swaps, schedule, duration_ns
) -> dict:
    """The comparable content of a transpile result; mappings as item
    lists, so their order is compared too."""
    return {
        "ops": [(g.name, g.qubits, g.params) for g in circuit.ops],
        "initial_mapping": list(initial_mapping.items()),
        "final_mapping": list(final_mapping.items()),
        "num_swaps": num_swaps,
        "schedule": [
            (op.index, op.name, op.qubits, op.start_ns, op.duration_ns)
            for op in schedule.ops
        ],
        "duration_ns": duration_ns,
    }
