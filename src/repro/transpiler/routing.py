"""SWAP routing for restricted coupling maps.

A lightweight SABRE-flavoured router: gates are processed in dependency
order; when a two-qubit gate spans non-adjacent physical qubits, SWAPs are
inserted greedily along a shortest path, choosing at each step the swap
that minimizes the summed BFS distance of the *lookahead window* of pending
two-qubit gates. Distances are precomputed with one BFS per node, as
plain rows; neighbours are listed in first-seen edge order, duplicates
dropped, which is the order every tie here and in the layouts breaks on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..circuits.circuit import Circuit
from ..circuits.gates import Gate

__all__ = [
    "RoutedCircuit", "hop_distances", "hops_from", "neighbour_lists", "route"
]

LOOKAHEAD = 8
_DECAY = 0.6


def neighbour_lists(coupling: list[tuple[int, int]], num_qubits: int) -> list[list[int]]:
    """Each node's neighbours, in the order their edges first appear."""
    neighbours: list[list[int]] = [[] for _ in range(num_qubits)]
    for a, b in coupling:
        if b not in neighbours[a]:
            neighbours[a].append(b)
            if a != b:
                neighbours[b].append(a)
    return neighbours


def hops_from(neighbours: list[list[int]], source: int) -> list[float]:
    """Hop counts from ``source`` by BFS; ``inf`` where unreachable."""
    row = [math.inf] * len(neighbours)
    row[source] = 0
    frontier, hops = [source], 0
    while frontier:
        hops += 1
        reached = []
        for node in frontier:
            for nb in neighbours[node]:
                if row[nb] == math.inf:
                    row[nb] = hops
                    reached.append(nb)
        frontier = reached
    return row


def hop_distances(neighbours: list[list[int]]) -> list[list[float]]:
    """Shortest-path hop counts between every pair of nodes."""
    return [hops_from(neighbours, source) for source in range(len(neighbours))]


@dataclass
class RoutedCircuit:
    """Routing output: physical circuit + final logical->physical map."""

    circuit: Circuit
    initial_mapping: dict[int, int]
    final_mapping: dict[int, int]
    num_swaps: int


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
    neighbours = neighbour_lists(coupling, num_physical)
    dist = hop_distances(neighbours)

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
            cost += weight * dist[mapping[a]][mapping[b]]  # inf stays inf
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
        if dist[pa][pb] == math.inf:
            raise ValueError(
                f"qubits {pa} and {pb} are disconnected on this coupling map"
            )
        while dist[l2p[a]][l2p[b]] > 1:
            pa, pb = l2p[a], l2p[b]
            p2l = {p: lq for lq, p in l2p.items()}
            # Candidate swaps: edges incident to either endpoint.
            best_swap, best_cost = None, float("inf")
            for endpoint in (pa, pb):
                for nb in neighbours[endpoint]:
                    trial = dict(l2p)
                    le = p2l.get(endpoint)
                    ln = p2l.get(nb)
                    if le is not None:
                        trial[le] = nb
                    if ln is not None:
                        trial[ln] = endpoint
                    cost = dist[trial[a]][trial[b]] * 2.0 + lookahead_cost(
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
