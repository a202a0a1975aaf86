"""Circuit knitting via quasi-probability gate cutting (paper refs [60, 89]).

Cuts the cross-partition CZ "bridge" gates of a circuit using the exact
Mitarai-Fujii decomposition of the CZ channel into local channels
(gamma = 3, verified numerically in the test suite):

    CZ  =  1/2 [S (x) S]  +  1/2 [Sdg (x) Sdg]
         + 1/2 [I (x) Dz] - 1/2 [Z (x) Dz]
         + 1/2 [Dz (x) I] - 1/2 [Dz (x) Z]

where ``Dz(rho) = P0 rho P0 - P1 rho P1`` is the measure-Z-and-weight-by-
outcome channel. Each Dz expands into its two projective branches, giving
10 signed local-op assignments per cut CZ. Fragments are executed
independently (on smaller devices, or sequentially on one device — Fig. 2a)
and the full distribution is reconstructed as the signed tensor-product sum.

Knitting cost: 10^k weighted variants for k cuts; reconstruction is a dense
outer-product accumulation, O(10^k * 2^(nA+nB)).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.gates import Gate

__all__ = [
    "CutInstruction",
    "CutPlan",
    "cut_circuit",
    "knit",
    "CZ_QPD_TERMS",
]

# Each entry: (coefficient, op_a, op_b). Ops: "s", "sdg", "id", "z",
# "p0" (project |0>), "p1" (project |1>). Dz branches carry the outcome sign.
CZ_QPD_TERMS: tuple[tuple[float, str, str], ...] = (
    (+0.5, "s", "s"),
    (+0.5, "sdg", "sdg"),
    (+0.5, "id", "p0"),
    (-0.5, "id", "p1"),
    (-0.5, "z", "p0"),
    (+0.5, "z", "p1"),
    (+0.5, "p0", "id"),
    (-0.5, "p1", "id"),
    (-0.5, "p0", "z"),
    (+0.5, "p1", "z"),
)


@dataclass(frozen=True)
class CutInstruction:
    """One cross-partition CZ selected for cutting."""

    op_index: int
    qubit_a: int  # lives in partition A
    qubit_b: int  # lives in partition B


@dataclass
class CutPlan:
    """Everything needed to execute and knit a cut circuit."""

    partition_a: tuple[int, ...]
    partition_b: tuple[int, ...]
    cuts: tuple[CutInstruction, ...]
    variants_a: list[Circuit] = field(default_factory=list)
    variants_b: list[Circuit] = field(default_factory=list)
    coefficients: list[float] = field(default_factory=list)

    @property
    def num_variants(self) -> int:
        return len(self.coefficients)

    @property
    def gamma(self) -> float:
        return 3.0 ** len(self.cuts)


def _apply_local_op(circ: Circuit, op: str, qubit: int) -> None:
    if op == "id":
        return
    if op in ("s", "sdg", "z"):
        circ.add(op, [qubit])
    elif op == "p0":
        circ.project(0, qubit)
    elif op == "p1":
        circ.project(1, qubit)
    else:
        raise ValueError(f"unknown QPD local op {op!r}")


def cut_circuit(
    circuit: Circuit,
    partition_a: list[int],
    partition_b: list[int] | None = None,
) -> CutPlan:
    """Cut every CZ bridging the two qubit partitions.

    Requirements: the partitions cover all qubits, and the *only* gates
    crossing the partition boundary are CZ gates (the clustered workloads
    of :func:`repro.workloads.clustered_circuit` satisfy this by
    construction). Raises ``ValueError`` otherwise.

    Returns a :class:`CutPlan` whose ``variants_a[i]`` / ``variants_b[i]``
    / ``coefficients[i]`` triples enumerate all 10^k signed variants.
    """
    set_a = set(partition_a)
    if partition_b is None:
        partition_b = [q for q in range(circuit.num_qubits) if q not in set_a]
    set_b = set(partition_b)
    if set_a & set_b:
        raise ValueError("partitions overlap")
    if set_a | set_b != set(range(circuit.num_qubits)):
        raise ValueError("partitions must cover all qubits")

    cuts: list[CutInstruction] = []
    for idx, g in enumerate(circuit.ops):
        if g.name == "barrier" or g.num_qubits < 2:
            continue
        qa, qb = g.qubits
        crosses = (qa in set_a) != (qb in set_a)
        if not crosses:
            continue
        if g.name != "cz":
            raise ValueError(
                f"cross-partition gate {g.name!r} at op {idx} is not a CZ; "
                "only CZ bridges can be cut"
            )
        a, b = (qa, qb) if qa in set_a else (qb, qa)
        cuts.append(CutInstruction(idx, a, b))

    plan = CutPlan(
        partition_a=tuple(sorted(set_a)),
        partition_b=tuple(sorted(set_b)),
        cuts=tuple(cuts),
    )
    map_a = {q: i for i, q in enumerate(plan.partition_a)}
    map_b = {q: i for i, q in enumerate(plan.partition_b)}
    cut_indices = {c.op_index: c for c in cuts}

    for combo_id, combo in enumerate(
        itertools.product(range(len(CZ_QPD_TERMS)), repeat=len(cuts))
    ):
        coeff = 1.0
        frag_a = Circuit(len(plan.partition_a), f"{circuit.name}_A_v{combo_id}")
        frag_b = Circuit(len(plan.partition_b), f"{circuit.name}_B_v{combo_id}")
        cut_pos = 0
        for idx, g in enumerate(circuit.ops):
            if idx in cut_indices:
                c, op_a, op_b = CZ_QPD_TERMS[combo[cut_pos]]
                cut = cut_indices[idx]
                coeff *= c
                _apply_local_op(frag_a, op_a, map_a[cut.qubit_a])
                _apply_local_op(frag_b, op_b, map_b[cut.qubit_b])
                cut_pos += 1
                continue
            if g.name == "barrier":
                qa = tuple(map_a[q] for q in g.qubits if q in set_a)
                qb = tuple(map_b[q] for q in g.qubits if q in set_b)
                if qa or not g.qubits:
                    frag_a.append(Gate("barrier", qa))
                if qb or not g.qubits:
                    frag_b.append(Gate("barrier", qb))
                continue
            if all(q in set_a for q in g.qubits):
                frag_a.append(g.remap(map_a))
            elif all(q in set_b for q in g.qubits):
                frag_b.append(g.remap(map_b))
            else:  # pragma: no cover - already validated above
                raise AssertionError("unexpected cross-partition gate")
        plan.variants_a.append(frag_a)
        plan.variants_b.append(frag_b)
        plan.coefficients.append(coeff)
    return plan


def knit(
    plan: CutPlan,
    probs_a: list[np.ndarray],
    probs_b: list[np.ndarray],
) -> tuple[np.ndarray, float]:
    """Reconstruct the full distribution from fragment variant outputs.

    ``probs_a[i]`` / ``probs_b[i]`` are (possibly unnormalized — projective
    branches carry their branch probability as their total mass) outcome
    distributions of variant ``i``. Returns ``(distribution, classical_s)``
    where the second element is the measured reconstruction wall time.

    Bit layout of the output index: partition-A qubits occupy the positions
    of ``plan.partition_a`` in the original register, B likewise.
    """
    if not (len(probs_a) == len(probs_b) == plan.num_variants):
        raise ValueError("variant result count mismatch")
    t0 = time.perf_counter()
    n_total = len(plan.partition_a) + len(plan.partition_b)
    na = len(plan.partition_a)
    nb = len(plan.partition_b)
    joint = np.zeros((2**na, 2**nb))
    for coeff, pa, pb in zip(plan.coefficients, probs_a, probs_b):
        joint += coeff * np.outer(pa, pb)
    # Scatter joint (a, b) into the original qubit positions.
    full = np.zeros(2**n_total)
    a_positions = np.array(plan.partition_a)
    b_positions = np.array(plan.partition_b)
    a_idx = np.arange(2**na)
    b_idx = np.arange(2**nb)
    a_scatter = np.zeros(2**na, dtype=np.int64)
    for bit, pos in enumerate(a_positions):
        a_scatter |= ((a_idx >> bit) & 1) << pos
    b_scatter = np.zeros(2**nb, dtype=np.int64)
    for bit, pos in enumerate(b_positions):
        b_scatter |= ((b_idx >> bit) & 1) << pos
    flat_targets = (a_scatter[:, None] | b_scatter[None, :]).reshape(-1)
    np.add.at(full, flat_targets, joint.reshape(-1))
    full = np.clip(full, 0.0, None)
    total = full.sum()
    if total > 0:
        full /= total
    elapsed = time.perf_counter() - t0
    return full, elapsed
