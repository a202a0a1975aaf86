"""Quantum circuit container.

A :class:`Circuit` is an ordered list of :class:`~repro.circuits.gates.Gate`
operations over ``num_qubits`` wires, with convenience builder methods for
every gate in the standard library, structural metrics (depth, counts), and
algebraic operations (composition, inversion, power, remapping).

The builder methods live on :class:`OpSink`, which a
:class:`~repro.circuits.metrics.MetricsWriter` shares with :class:`Circuit`.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING, Any, TypeVar

import numpy as np

from .gates import Gate, inverse_gate

if TYPE_CHECKING:
    from typing_extensions import Self

__all__ = ["Circuit", "OpSink", "SinkT"]


class OpSink:
    """The builder API over ``num_qubits`` wires: one method per standard
    gate, each an :meth:`add` that checks the op and hands it to the
    subclass's ``_put``."""

    __slots__ = ("num_qubits", "name", "_ops", "metadata")

    def __init__(self, num_qubits: int, name: str = "circuit") -> None:
        if num_qubits < 1:
            raise ValueError(f"num_qubits must be >= 1, got {num_qubits}")
        self.num_qubits = int(num_qubits)
        self.name = name
        self._ops: list[Any] = []
        self.metadata: dict = {}

    def _put(self, name: str, qubits: tuple[int, ...], params: tuple[float, ...]) -> Self:
        raise NotImplementedError

    def _check_wires(self, qubits: tuple[int, ...]) -> None:
        for q in qubits:
            if not 0 <= q < self.num_qubits:
                raise ValueError(
                    f"qubit {q} out of range for {self.num_qubits}-qubit circuit"
                )

    def add(self, name: str, qubits: Iterable[int], *params: float) -> Self:
        """Append gate ``name`` on ``qubits`` with bound ``params``. Qubit
        indices are ``operator.index``-ed: a float is refused, not truncated."""
        try:
            wires = tuple(map(operator.index, qubits))
        except TypeError:
            raise TypeError(
                f"gate {name!r} needs integer qubit indices, got {qubits!r}"
            ) from None
        return self._put(name, wires, params)

    # ------------------------------------------------------------------
    # builder API (one method per standard gate)
    # ------------------------------------------------------------------
    def id(self, q: int) -> Self:
        return self.add("id", [q])

    def h(self, q: int) -> Self:
        return self.add("h", [q])

    def x(self, q: int) -> Self:
        return self.add("x", [q])

    def y(self, q: int) -> Self:
        return self.add("y", [q])

    def z(self, q: int) -> Self:
        return self.add("z", [q])

    def s(self, q: int) -> Self:
        return self.add("s", [q])

    def t(self, q: int) -> Self:
        return self.add("t", [q])

    def tdg(self, q: int) -> Self:
        return self.add("tdg", [q])

    def sx(self, q: int) -> Self:
        return self.add("sx", [q])

    def rx(self, theta: float, q: int) -> Self:
        return self.add("rx", [q], theta)

    def ry(self, theta: float, q: int) -> Self:
        return self.add("ry", [q], theta)

    def rz(self, phi: float, q: int) -> Self:
        return self.add("rz", [q], phi)

    def p(self, lam: float, q: int) -> Self:
        return self.add("p", [q], lam)

    def u(self, theta: float, phi: float, lam: float, q: int) -> Self:
        return self.add("u", [q], theta, phi, lam)

    def cx(self, c: int, t: int) -> Self:
        return self.add("cx", [c, t])

    def cz(self, c: int, t: int) -> Self:
        return self.add("cz", [c, t])

    def swap(self, a: int, b: int) -> Self:
        return self.add("swap", [a, b])

    def rzz(self, theta: float, a: int, b: int) -> Self:
        return self.add("rzz", [a, b], theta)

    def cp(self, lam: float, c: int, t: int) -> Self:
        return self.add("cp", [c, t], lam)

    def measure(self, q: int) -> Self:
        return self.add("measure", [q])

    def measure_all(self) -> Self:
        for q in range(self.num_qubits):
            self.measure(q)
        return self

    def reset(self, q: int) -> Self:
        return self.add("reset", [q])

    def barrier(self, *qubits: int) -> Self:
        return self._put("barrier", tuple(qubits), ())

    def delay(self, duration_ns: float, q: int) -> Self:
        return self.add("delay", [q], float(duration_ns))

    def project(self, outcome: int, q: int) -> Self:
        """Non-unitary projector |outcome><outcome| (no renormalization)."""
        if outcome not in (0, 1):
            raise ValueError("projection outcome must be 0 or 1")
        return self.add("project", [q], float(outcome))


#: What a generator taking ``sink=`` returns: the sink it was given.
SinkT = TypeVar("SinkT", bound=OpSink)


class Circuit(OpSink):
    """An ordered sequence of gates over ``num_qubits`` qubits.

    Parameters
    ----------
    num_qubits:
        Number of wires. Must be positive.
    name:
        Optional human-readable label used in reports and registries.
    """

    __slots__ = ()
    _ops: list[Gate]

    # ------------------------------------------------------------------
    # core mutation
    # ------------------------------------------------------------------
    def append(self, gate: Gate) -> "Circuit":
        """Append a gate, validating qubit indices against the register."""
        self._check_wires(gate.qubits)
        self._ops.append(gate)
        return self

    def _put(self, name: str, qubits: tuple[int, ...], params: tuple[float, ...]) -> "Circuit":
        return self.append(Gate(name, qubits, params))

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def ops(self) -> list[Gate]:
        """The gate list (mutable view; prefer :meth:`append`)."""
        return self._ops

    @property
    def gates(self) -> list[Gate]:
        """Unitary gates only (no measure/reset/barrier/delay)."""
        return [g for g in self._ops if g.is_unitary]

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._ops)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Circuit)
            and self.num_qubits == other.num_qubits
            and self._ops == other._ops
        )

    def __repr__(self) -> str:
        return (
            f"Circuit(name={self.name!r}, qubits={self.num_qubits}, "
            f"ops={len(self._ops)}, depth={self.depth()})"
        )

    @property
    def num_measurements(self) -> int:
        return sum(1 for g in self._ops if g.name == "measure")

    def depth(self, *, two_qubit_only: bool = False) -> int:
        """Circuit depth: longest path of ops through any wire.

        Barriers synchronize all listed wires (all wires when empty) without
        adding a layer themselves.
        """
        levels = [0] * self.num_qubits
        for g in self._ops:
            if g.name == "barrier":
                wires = g.qubits if g.qubits else tuple(range(self.num_qubits))
                sync = max((levels[q] for q in wires), default=0)
                for q in wires:
                    levels[q] = sync
                continue
            weight = 1
            if two_qubit_only and not (g.is_unitary and g.num_qubits == 2):
                weight = 0
            start = max(levels[q] for q in g.qubits)
            for q in g.qubits:
                levels[q] = start + weight
        return max(levels, default=0)

    def used_qubits(self) -> set[int]:
        used: set[int] = set()
        for g in self._ops:
            used.update(g.qubits)
        return used

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------
    def copy(self) -> "Circuit":
        out = Circuit(self.num_qubits, self.name)
        out._ops = list(self._ops)
        out.metadata = dict(self.metadata)
        return out

    def without_measurements(self) -> "Circuit":
        """Copy with measure/barrier/reset/delay ops stripped."""
        out = Circuit(self.num_qubits, self.name)
        out._ops = [g for g in self._ops if g.is_unitary]
        out.metadata = dict(self.metadata)
        return out

    def compose(self, other: "Circuit", qubits: Iterable[int] | None = None) -> "Circuit":
        """Append ``other``'s ops onto self, optionally remapped to ``qubits``."""
        if qubits is None:
            mapping = {q: q for q in range(other.num_qubits)}
        else:
            qlist = list(qubits)
            if len(qlist) != other.num_qubits:
                raise ValueError(
                    f"qubit mapping length {len(qlist)} != {other.num_qubits}"
                )
            mapping = dict(enumerate(qlist))
        for g in other._ops:
            if g.name == "barrier":
                self.append(Gate("barrier", tuple(mapping[q] for q in g.qubits)))
            else:
                self.append(g.remap(mapping))
        return self

    def inverse(self) -> "Circuit":
        """Adjoint circuit (unitary part only; measurements are dropped)."""
        out = Circuit(self.num_qubits, f"{self.name}_dg")
        out._ops = [inverse_gate(g) for g in reversed(self.gates)]
        return out

    def remap(self, mapping: dict[int, int], num_qubits: int | None = None) -> "Circuit":
        """Relabel qubits via ``mapping`` into a (possibly larger) register."""
        size = num_qubits if num_qubits is not None else self.num_qubits
        out = Circuit(size, self.name)
        for g in self._ops:
            if g.name == "barrier":
                out.append(Gate("barrier", tuple(mapping[q] for q in g.qubits)))
            else:
                out.append(g.remap(mapping))
        out.metadata = dict(self.metadata)
        return out

    # ------------------------------------------------------------------
    # linear algebra
    # ------------------------------------------------------------------
    def unitary(self) -> np.ndarray:
        """Dense unitary of the circuit (small circuits only, <= 12 qubits)."""
        if self.num_qubits > 12:
            raise ValueError("unitary() limited to 12 qubits")
        dim = 2**self.num_qubits
        mat = np.eye(dim, dtype=complex)
        from ..simulation.statevector import apply_gate_to_matrix

        for g in self.gates:
            mat = apply_gate_to_matrix(mat, g, self.num_qubits)
        return mat

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "num_qubits": self.num_qubits,
            "ops": [
                {"name": g.name, "qubits": list(g.qubits), "params": list(g.params)}
                for g in self._ops
            ],
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Circuit":
        circ = cls(data["num_qubits"], data.get("name", "circuit"))
        for op in data["ops"]:
            circ.append(
                Gate(op["name"], tuple(op["qubits"]), tuple(op.get("params", ())))
            )
        circ.metadata = dict(data.get("metadata", {}))
        return circ
