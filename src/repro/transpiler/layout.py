"""Initial layout selection: mapping logical to physical qubits.

Two policies:

* ``trivial`` — identity mapping (logical i -> physical i).
* ``noise_aware`` — greedy expansion over the coupling graph choosing the
  connected physical region with the best combined link/readout quality,
  then assigning the most interaction-heavy logical qubits to the
  best-connected physical seats. This mirrors what noise-adaptive mappers
  do and is the default for all experiments.
"""

from __future__ import annotations

import math

import numpy as np

from ..circuits.circuit import Circuit
from ..simulation.noise import NoiseModel
from .routing import hops_from, neighbour_lists

__all__ = ["Layout", "trivial_layout", "noise_aware_layout", "linear_path_layout"]


class Layout:
    """Bijective logical->physical mapping for the used qubits."""

    def __init__(self, mapping: dict[int, int], num_physical: int) -> None:
        if len(set(mapping.values())) != len(mapping):
            raise ValueError("layout must be injective")
        for p in mapping.values():
            if not 0 <= p < num_physical:
                raise ValueError(f"physical qubit {p} out of range")
        self.logical_to_physical = dict(mapping)
        self.num_physical = num_physical

    def physical(self, logical: int) -> int:
        return self.logical_to_physical[logical]

    def inverse(self) -> dict[int, int]:
        return {p: lq for lq, p in self.logical_to_physical.items()}

    def __repr__(self) -> str:
        return f"Layout({self.logical_to_physical})"


def trivial_layout(circuit: Circuit, num_physical: int) -> Layout:
    if circuit.num_qubits > num_physical:
        raise ValueError(
            f"circuit needs {circuit.num_qubits} qubits, device has {num_physical}"
        )
    return Layout({q: q for q in range(circuit.num_qubits)}, num_physical)


def _edge_quality(noise_model: NoiseModel, a: int, b: int) -> float:
    """Quality score of a physical link: survival of one CX + readouts."""
    gn = noise_model.gate_noise("cx", (a, b))
    qa, qb = noise_model.qubits[a], noise_model.qubits[b]
    return (1.0 - gn.error) * (1.0 - 0.5 * (qa.readout_error + qb.readout_error))


def _link_quality(
    neighbours: list[list[int]], noise_model: NoiseModel
) -> dict[tuple[int, int], float]:
    """Every link's quality, keyed ``(low, high)`` in node order, then in
    the low end's neighbour order."""
    return {
        (a, b): _edge_quality(noise_model, a, b)
        for a, nbrs in enumerate(neighbours)
        for b in nbrs
        if b >= a
    }


def _interaction_path(circuit: Circuit) -> list[int] | None:
    """If the 2q-interaction graph is a simple path (or ring), return the
    logical qubits in path order; else ``None``.

    Rings are opened at their weakest (least used) edge. Chain-structured
    workloads (GHZ ladders, linear-entanglement ansatze, QAOA rings, adders)
    dominate real suites, and mapping them along a physical path eliminates
    nearly all routing — mirroring what production layout passes achieve.
    """
    n = circuit.num_qubits
    weights: dict[tuple[int, int], int] = {}
    for gate in circuit.ops:
        if gate.is_unitary and gate.num_qubits == 2:
            e = (min(gate.qubits), max(gate.qubits))
            weights[e] = weights.get(e, 0) + 1
    neighbours = neighbour_lists(list(weights), n)
    if not weights or math.inf in hops_from(neighbours, 0):
        return None
    if max(map(len, neighbours)) > 2:
        return None
    ends = [q for q in range(n) if len(neighbours[q]) == 1]
    if len(ends) == 0:  # ring: drop the least-used edge
        a, b = min(weights, key=weights.get)
        neighbours[a].remove(b)
        neighbours[b].remove(a)
        ends = [a, b]
    if len(ends) != 2:
        return None
    path = [ends[0]]
    prev = None
    while len(path) < n:
        nbrs = [x for x in neighbours[path[-1]] if x != prev]
        if not nbrs:
            return None
        prev = path[-1]
        path.append(nbrs[0])
    return path


def _best_physical_path(
    neighbours: list[list[int]],
    length: int,
    quality: dict[tuple[int, int], float],
) -> list[int] | None:
    """Greedy DFS for a high-quality simple path of ``length`` nodes."""
    def extend(path: list[int], seen: set[int]) -> list[int] | None:
        if len(path) == length:
            return path
        nbrs = sorted(
            (n for n in neighbours[path[-1]] if n not in seen),
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
        range(len(neighbours)),
        key=lambda v: -max(
            (quality.get((min(v, n), max(v, n)), 0.0) for n in neighbours[v]),
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
    order = _interaction_path(circuit)  # every logical qubit, when not None
    if order is None:
        return None
    neighbours = neighbour_lists(coupling, num_physical)
    path = _best_physical_path(
        neighbours, len(order), _link_quality(neighbours, noise_model)
    )
    if path is None:
        return None
    return Layout(dict(zip(order, path)), num_physical)


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
    neighbours = neighbour_lists(coupling, num_physical)
    quality = _link_quality(neighbours, noise_model)
    if n_logical == num_physical and not quality:
        return trivial_layout(circuit, num_physical)

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
            for nb in neighbours[node]:
                if nb in region:
                    continue
                score = max(
                    quality.get((min(nb, x), max(nb, x)), 0.0)
                    for x in neighbours[nb]
                    if x in region
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
            -sum(1 for nb in neighbours[p] if nb in region),
            -max(
                (
                    quality.get((min(p, nb), max(p, nb)), 0.0)
                    for nb in neighbours[p]
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
