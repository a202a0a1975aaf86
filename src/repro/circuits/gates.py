"""Standard gate library.

Defines the gate set used throughout the reproduction: names, arities,
parameter counts, unitary matrices, and algebraic helpers (inverse,
decomposition metadata). The IBM-style hardware basis is ``{rz, sx, x, cx}``
plus measurement/reset/barrier pseudo-ops; the logical gate set mirrors the
standard gates of mainstream circuit frameworks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Gate",
    "GateSpec",
    "GATE_SPECS",
    "check_op",
    "gate_matrix",
    "inverse_gate",
    "HARDWARE_BASIS",
    "PSEUDO_OPS",
]

#: The IBM-heron/falcon-like hardware basis used by the transpiler target.
HARDWARE_BASIS = ("rz", "sx", "x", "cx")

#: Non-unitary / structural operations that may appear in a circuit.
PSEUDO_OPS = ("measure", "reset", "barrier", "delay", "project")

_SQ2 = 1.0 / math.sqrt(2.0)

_H = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)
_SDG = np.array([[1, 0], [0, -1j]], dtype=complex)
_T = np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex)
_TDG = np.array([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]], dtype=complex)
_SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)
_SXDG = _SX.conj().T
_I2 = np.eye(2, dtype=complex)

_CX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_CZ = np.diag([1, 1, 1, -1]).astype(complex)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
_ECR = _SQ2 * np.array(
    [[0, 1, 0, 1j], [1, 0, -1j, 0], [0, 1j, 0, 1], [-1j, 0, 1, 0]],
    dtype=complex,
)


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(phi: float) -> np.ndarray:
    return np.array(
        [[cmath.exp(-1j * phi / 2), 0], [0, cmath.exp(1j * phi / 2)]],
        dtype=complex,
    )


def _p(lam: float) -> np.ndarray:
    return np.array([[1, 0], [0, cmath.exp(1j * lam)]], dtype=complex)


def _u(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c, -cmath.exp(1j * lam) * s],
            [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


def _rzz(theta: float) -> np.ndarray:
    e_m = cmath.exp(-1j * theta / 2)
    e_p = cmath.exp(1j * theta / 2)
    return np.diag([e_m, e_p, e_p, e_m]).astype(complex)


def _rxx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    m = np.eye(4, dtype=complex) * c
    m[0, 3] = m[3, 0] = m[1, 2] = m[2, 1] = -1j * s
    return m


def _cp(lam: float) -> np.ndarray:
    return np.diag([1, 1, 1, cmath.exp(1j * lam)]).astype(complex)


def _crz(theta: float) -> np.ndarray:
    m = np.eye(4, dtype=complex)
    m[2, 2] = cmath.exp(-1j * theta / 2)
    m[3, 3] = cmath.exp(1j * theta / 2)
    return m


@dataclass(frozen=True)
class GateSpec:
    """Static description of a gate type."""

    name: str
    num_qubits: int
    num_params: int
    matrix_fn: object  # Callable[..., np.ndarray] | np.ndarray | None
    self_inverse: bool = False
    inverse_name: str | None = None

    def matrix(self, params: tuple[float, ...] = ()) -> np.ndarray:
        """Return the unitary for this spec with ``params`` bound."""
        if self.matrix_fn is None:
            raise ValueError(f"gate {self.name!r} has no unitary matrix")
        if callable(self.matrix_fn):
            return self.matrix_fn(*params)
        return self.matrix_fn


GATE_SPECS: dict[str, GateSpec] = {
    # --- single-qubit, constant --------------------------------------
    "id": GateSpec("id", 1, 0, _I2, self_inverse=True),
    "h": GateSpec("h", 1, 0, _H, self_inverse=True),
    "x": GateSpec("x", 1, 0, _X, self_inverse=True),
    "y": GateSpec("y", 1, 0, _Y, self_inverse=True),
    "z": GateSpec("z", 1, 0, _Z, self_inverse=True),
    "s": GateSpec("s", 1, 0, _S, inverse_name="sdg"),
    "sdg": GateSpec("sdg", 1, 0, _SDG, inverse_name="s"),
    "t": GateSpec("t", 1, 0, _T, inverse_name="tdg"),
    "tdg": GateSpec("tdg", 1, 0, _TDG, inverse_name="t"),
    "sx": GateSpec("sx", 1, 0, _SX, inverse_name="sxdg"),
    "sxdg": GateSpec("sxdg", 1, 0, _SXDG, inverse_name="sx"),
    # --- single-qubit, parametric ------------------------------------
    "rx": GateSpec("rx", 1, 1, _rx),
    "ry": GateSpec("ry", 1, 1, _ry),
    "rz": GateSpec("rz", 1, 1, _rz),
    "p": GateSpec("p", 1, 1, _p),
    "u": GateSpec("u", 1, 3, _u),
    # --- two-qubit ----------------------------------------------------
    "cx": GateSpec("cx", 2, 0, _CX, self_inverse=True),
    "cz": GateSpec("cz", 2, 0, _CZ, self_inverse=True),
    "swap": GateSpec("swap", 2, 0, _SWAP, self_inverse=True),
    "ecr": GateSpec("ecr", 2, 0, _ECR, self_inverse=True),
    "rzz": GateSpec("rzz", 2, 1, _rzz),
    "rxx": GateSpec("rxx", 2, 1, _rxx),
    "cp": GateSpec("cp", 2, 1, _cp),
    "crz": GateSpec("crz", 2, 1, _crz),
    # --- pseudo ops (no unitary) ---------------------------------------
    "measure": GateSpec("measure", 1, 0, None),
    "reset": GateSpec("reset", 1, 0, None),
    "barrier": GateSpec("barrier", 0, 0, None),
    "delay": GateSpec("delay", 1, 1, None),
    # Non-unitary projector |b><b| (param = b in {0, 1}) used by circuit
    # cutting to realize measure-and-weight channels; simulators apply it
    # WITHOUT renormalizing, so trajectory norms carry branch probabilities.
    "project": GateSpec("project", 1, 1, None),
}

# Every Gate of a constant type returns the same array: none may write it.
for _spec in GATE_SPECS.values():
    if isinstance(_spec.matrix_fn, np.ndarray):
        _spec.matrix_fn.setflags(write=False)

_set = object.__setattr__


def check_op(name: str, qubits: tuple[int, ...], params: tuple[float, ...]) -> GateSpec:
    """Check one op against its spec and return the spec: a known name,
    its wire and parameter counts, and distinct wires.  Every
    :class:`Gate` and every op sink runs exactly these checks."""
    spec = GATE_SPECS.get(name)
    if spec is None:
        raise ValueError(f"unknown gate {name!r}")
    width = len(qubits)
    if width != spec.num_qubits and name != "barrier":
        raise ValueError(
            f"gate {name!r} expects {spec.num_qubits} qubits, got {width}"
        )
    if len(params) != spec.num_params and name != "delay":
        raise ValueError(
            f"gate {name!r} expects {spec.num_params} params, got {len(params)}"
        )
    if width > 1 and len(set(qubits)) != width:
        raise ValueError(f"duplicate qubits in {name!r}: {qubits}")
    return spec


@dataclass(frozen=True, init=False)
class Gate:
    """A gate instance: a named operation applied to concrete qubits.

    ``qubits`` are circuit-level indices; ``params`` are bound floats. The
    class is immutable and hashable so gates can live in DAG nodes and sets.
    It is checked against its spec, and ``is_unitary`` read off it, in one
    pass at construction.
    """

    name: str
    qubits: tuple[int, ...]
    params: tuple[float, ...]
    is_unitary: bool = field(repr=False, compare=False)

    def __init__(self, name: str, qubits: tuple[int, ...], params: tuple[float, ...] = ()) -> None:
        spec = check_op(name, qubits, params)
        _set(self, "name", name)
        _set(self, "qubits", qubits)
        _set(self, "params", params)
        _set(self, "is_unitary", spec.matrix_fn is not None)

    @property
    def spec(self) -> GateSpec:
        return GATE_SPECS[self.name]

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    def matrix(self) -> np.ndarray:
        """The bound unitary matrix of this gate instance."""
        return self.spec.matrix(self.params)

    def remap(self, mapping: dict[int, int]) -> "Gate":
        """Return a copy acting on ``mapping[q]`` for each qubit ``q``."""
        return Gate(self.name, tuple(mapping[q] for q in self.qubits), self.params)


def gate_matrix(name: str, *params: float) -> np.ndarray:
    """Unitary matrix for gate ``name`` with ``params`` bound."""
    return GATE_SPECS[name].matrix(tuple(params))


def inverse_gate(gate: Gate) -> Gate:
    """Return the inverse of ``gate`` as another standard :class:`Gate`."""
    spec = gate.spec
    if not gate.is_unitary:
        raise ValueError(f"cannot invert non-unitary op {gate.name!r}")
    if spec.self_inverse:
        return gate
    if spec.inverse_name is not None:
        return Gate(spec.inverse_name, gate.qubits)
    if spec.num_params > 0:
        if gate.name == "u":
            theta, phi, lam = gate.params
            return Gate("u", gate.qubits, (-theta, -lam, -phi))
        return Gate(gate.name, gate.qubits, tuple(-p for p in gate.params))
    raise ValueError(f"no inverse rule for gate {gate.name!r}")
