"""Structural circuit metrics used as ML features and scheduling inputs.

These are the features the paper's resource estimator trains on: width,
depth, two-qubit gate count, shot count, plus a few extras (parallelism,
critical-path gate composition) used by ablations.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, asdict
from functools import cached_property

from .circuit import Circuit, OpSink
from .gates import GATE_SPECS, check_op

__all__ = ["CircuitMetrics", "MetricsWriter", "compute_metrics"]


@dataclass(frozen=True)
class CircuitMetrics:
    """Feature bundle describing one circuit."""

    num_qubits: int
    depth: int
    two_qubit_depth: int
    size: int
    num_1q_gates: int
    num_2q_gates: int
    num_measurements: int
    parallelism: float
    #: Max degree of the 2q-interaction graph: 0 = no entanglement,
    #: <= 2 = chain/ring (routes swap-free on a path), larger = needs swaps.
    max_interaction_degree: int = 99

    @property
    def routing_class(self) -> str:
        """Coarse routing difficulty: "linear" / "sparse" / "dense"."""
        if self.max_interaction_degree <= 2:
            return "linear"
        if self.max_interaction_degree <= 4:
            return "sparse"
        return "dense"

    @cached_property
    def fingerprint(self) -> tuple[int, ...]:
        """Content address: two circuits with equal structural metrics are
        interchangeable for estimation, so caches key on this tuple
        (built on first read)."""
        return (
            self.num_qubits,
            self.depth,
            self.two_qubit_depth,
            self.size,
            self.num_1q_gates,
            self.num_2q_gates,
            self.num_measurements,
            self.max_interaction_degree,
        )

    def as_dict(self) -> dict[str, int | float]:
        return asdict(self)


#: Op name -> how the fused pass treats it: ``1`` / ``2`` for a unitary on
#: that many wires, ``0`` for a one-wire pseudo op (``measure``, ``reset``,
#: ``delay``, ``project``).  ``barrier`` is absent: it is the one op whose
#: wire count varies, and the pass handles it before the lookup.
_UNITARY_WIRES: dict[str, int] = {
    name: spec.num_qubits if spec.matrix_fn is not None else 0
    for name, spec in GATE_SPECS.items()
    if name != "barrier"
}


def compute_metrics(circuit: Circuit) -> CircuitMetrics:
    """Compute the standard metric bundle for ``circuit`` in one pass.

    Both level vectors follow :meth:`Circuit.depth` exactly: every op
    other than a barrier adds a layer to ``depth``, only two-qubit
    unitaries add one to ``two_qubit_depth`` (a weight-0 op on one wire
    leaves that vector untouched), and a barrier synchronizes its listed
    wires — all wires when it lists none — without adding a layer.
    """
    return _fold(circuit.num_qubits, [(g.name, g.qubits) for g in circuit.ops])


class MetricsWriter(OpSink):
    """An op sink that keeps each op's ``(name, qubits)`` and no
    :class:`~repro.circuits.gates.Gate`: a generator run with
    ``sink=MetricsWriter`` refuses what :meth:`Circuit.add` refuses, and
    :meth:`metrics` equals :func:`compute_metrics` of the circuit it
    would have built."""

    __slots__ = ()

    def _put(self, name: str, qubits: tuple[int, ...], params: tuple[float, ...]) -> MetricsWriter:
        check_op(name, qubits, params)
        self._check_wires(qubits)
        self._ops.append((name, qubits))
        return self

    def metrics(self) -> CircuitMetrics:
        return _fold(self.num_qubits, self._ops)


def _fold(n: int, ops: Iterable[tuple[str, tuple[int, ...]]]) -> CircuitMetrics:
    """The one metrics pass, over ``(name, qubits)`` pairs on ``n`` wires."""
    levels = [0] * n
    levels_2q = [0] * n
    n_1q = n_2q = n_measure = 0
    degree: dict[int, int] = {}
    seen_edges: set[tuple[int, int]] = set()
    for name, qubits in ops:
        if name == "barrier":
            wires = qubits if qubits else range(n)
            for lv in (levels, levels_2q):
                sync = max(lv[q] for q in wires)
                for q in wires:
                    lv[q] = sync
            continue
        kind = _UNITARY_WIRES[name]
        if kind == 2:
            a, b = qubits
            n_2q += 1
            la, lb = levels[a], levels[b]
            levels[a] = levels[b] = (la if la > lb else lb) + 1
            la, lb = levels_2q[a], levels_2q[b]
            levels_2q[a] = levels_2q[b] = (la if la > lb else lb) + 1
            edge = (a, b) if a < b else (b, a)
            if edge not in seen_edges:
                seen_edges.add(edge)
                degree[a] = degree.get(a, 0) + 1
                degree[b] = degree.get(b, 0) + 1
        else:
            levels[qubits[0]] += 1
            if kind == 1:
                n_1q += 1
            elif name == "measure":
                n_measure += 1
    depth = max(levels)
    size = n_1q + n_2q
    return CircuitMetrics(
        num_qubits=n,
        depth=depth,
        two_qubit_depth=max(levels_2q),
        size=size,
        num_1q_gates=n_1q,
        num_2q_gates=n_2q,
        num_measurements=n_measure,
        parallelism=size / depth if depth > 0 else 0.0,
        max_interaction_degree=max(degree.values(), default=0),
    )
