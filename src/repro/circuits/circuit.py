"""Quantum circuit container.

A :class:`Circuit` is an ordered list of :class:`~repro.circuits.gates.Gate`
operations over ``num_qubits`` wires, with convenience builder methods for
every gate in the standard library, structural metrics (depth, counts), and
algebraic operations (composition, inversion, power, remapping).
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator

import numpy as np

from .gates import Gate, inverse_gate

__all__ = ["Circuit"]


class Circuit:
    """An ordered sequence of gates over ``num_qubits`` qubits.

    Parameters
    ----------
    num_qubits:
        Number of wires. Must be positive.
    name:
        Optional human-readable label used in reports and registries.
    """

    __slots__ = ("num_qubits", "name", "_ops", "metadata")

    def __init__(self, num_qubits: int, name: str = "circuit") -> None:
        if num_qubits < 1:
            raise ValueError(f"num_qubits must be >= 1, got {num_qubits}")
        self.num_qubits = int(num_qubits)
        self.name = name
        self._ops: list[Gate] = []
        self.metadata: dict = {}

    # ------------------------------------------------------------------
    # core mutation
    # ------------------------------------------------------------------
    def append(self, gate: Gate) -> "Circuit":
        """Append a gate, validating qubit indices against the register."""
        for q in gate.qubits:
            if not 0 <= q < self.num_qubits:
                raise ValueError(
                    f"qubit {q} out of range for {self.num_qubits}-qubit circuit"
                )
        self._ops.append(gate)
        return self

    def extend(self, gates: Iterable[Gate]) -> "Circuit":
        for g in gates:
            self.append(g)
        return self

    def add(self, name: str, qubits: Iterable[int], *params: float) -> "Circuit":
        """Append gate ``name`` on ``qubits`` with bound ``params``. Qubit
        indices are ``operator.index``-ed: a float is refused, not truncated."""
        try:
            wires = tuple(map(operator.index, qubits))
        except TypeError:
            raise TypeError(
                f"gate {name!r} needs integer qubit indices, got {qubits!r}"
            ) from None
        return self.append(Gate(name, wires, params))

    # ------------------------------------------------------------------
    # builder API (one method per standard gate)
    # ------------------------------------------------------------------
    def id(self, q: int) -> "Circuit":
        return self.add("id", [q])

    def h(self, q: int) -> "Circuit":
        return self.add("h", [q])

    def x(self, q: int) -> "Circuit":
        return self.add("x", [q])

    def y(self, q: int) -> "Circuit":
        return self.add("y", [q])

    def z(self, q: int) -> "Circuit":
        return self.add("z", [q])

    def s(self, q: int) -> "Circuit":
        return self.add("s", [q])

    def sdg(self, q: int) -> "Circuit":
        return self.add("sdg", [q])

    def t(self, q: int) -> "Circuit":
        return self.add("t", [q])

    def tdg(self, q: int) -> "Circuit":
        return self.add("tdg", [q])

    def sx(self, q: int) -> "Circuit":
        return self.add("sx", [q])

    def sxdg(self, q: int) -> "Circuit":
        return self.add("sxdg", [q])

    def rx(self, theta: float, q: int) -> "Circuit":
        return self.add("rx", [q], theta)

    def ry(self, theta: float, q: int) -> "Circuit":
        return self.add("ry", [q], theta)

    def rz(self, phi: float, q: int) -> "Circuit":
        return self.add("rz", [q], phi)

    def p(self, lam: float, q: int) -> "Circuit":
        return self.add("p", [q], lam)

    def u(self, theta: float, phi: float, lam: float, q: int) -> "Circuit":
        return self.add("u", [q], theta, phi, lam)

    def cx(self, c: int, t: int) -> "Circuit":
        return self.add("cx", [c, t])

    def cz(self, c: int, t: int) -> "Circuit":
        return self.add("cz", [c, t])

    def swap(self, a: int, b: int) -> "Circuit":
        return self.add("swap", [a, b])

    def ecr(self, a: int, b: int) -> "Circuit":
        return self.add("ecr", [a, b])

    def rzz(self, theta: float, a: int, b: int) -> "Circuit":
        return self.add("rzz", [a, b], theta)

    def rxx(self, theta: float, a: int, b: int) -> "Circuit":
        return self.add("rxx", [a, b], theta)

    def cp(self, lam: float, c: int, t: int) -> "Circuit":
        return self.add("cp", [c, t], lam)

    def crz(self, theta: float, c: int, t: int) -> "Circuit":
        return self.add("crz", [c, t], theta)

    def measure(self, q: int) -> "Circuit":
        return self.add("measure", [q])

    def measure_all(self) -> "Circuit":
        for q in range(self.num_qubits):
            self.measure(q)
        return self

    def reset(self, q: int) -> "Circuit":
        return self.add("reset", [q])

    def barrier(self, *qubits: int) -> "Circuit":
        return self.append(Gate("barrier", tuple(qubits)))

    def delay(self, duration_ns: float, q: int) -> "Circuit":
        return self.add("delay", [q], float(duration_ns))

    def project(self, outcome: int, q: int) -> "Circuit":
        """Non-unitary projector |outcome><outcome| (no renormalization)."""
        if outcome not in (0, 1):
            raise ValueError("projection outcome must be 0 or 1")
        return self.add("project", [q], float(outcome))

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

    def count_ops(self) -> dict[str, int]:
        """Histogram of op names, e.g. ``{'cx': 12, 'h': 4}``."""
        counts: dict[str, int] = {}
        for g in self._ops:
            counts[g.name] = counts.get(g.name, 0) + 1
        return counts

    @property
    def num_measurements(self) -> int:
        return sum(1 for g in self._ops if g.name == "measure")

    @property
    def measured_qubits(self) -> tuple[int, ...]:
        seen: list[int] = []
        for g in self._ops:
            if g.name == "measure" and g.qubits[0] not in seen:
                seen.append(g.qubits[0])
        return tuple(seen)

    def two_qubit_gate_count(self) -> int:
        """Number of two-qubit unitary gates (the dominant noise source)."""
        return sum(1 for g in self._ops if g.is_unitary and g.num_qubits == 2)

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
    def copy(self, name: str | None = None) -> "Circuit":
        out = Circuit(self.num_qubits, name or self.name)
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

    def power(self, n: int) -> "Circuit":
        """The circuit repeated ``n`` times (``n >= 0``)."""
        if n < 0:
            raise ValueError("power requires n >= 0")
        out = Circuit(self.num_qubits, f"{self.name}^{n}")
        for _ in range(n):
            out.compose(self)
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

    def qasm_like(self) -> str:
        """A compact OpenQASM-2-flavoured text dump (for debugging/goldens)."""
        lines = [f"// {self.name}", f"qreg q[{self.num_qubits}];"]
        for g in self._ops:
            if g.params:
                pstr = "(" + ",".join(f"{p:.6g}" for p in g.params) + ")"
            else:
                pstr = ""
            qstr = ",".join(f"q[{q}]" for q in g.qubits)
            lines.append(f"{g.name}{pstr} {qstr};")
        return "\n".join(lines)
