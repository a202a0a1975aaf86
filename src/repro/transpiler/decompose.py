"""Gate decomposition into the hardware basis {rz, sx, x, cx}.

Single-qubit gates go through ZYZ Euler angles and the standard
``u(theta, phi, lam) = rz(phi+pi) . sx . rz(theta+pi) . sx . rz(lam)``
identity (exact up to global phase). Two-qubit gates use textbook CX-based
identities. Runs of adjacent single-qubit gates are first fused into one
unitary so every run costs at most 2 sx + 3 rz after resynthesis.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.gates import GATE_SPECS, Gate

__all__ = [
    "zyz_angles",
    "u_to_basis_ops",
    "decompose_to_basis",
    "fuse_1q_runs",
    "decompose_circuit",
]

_EPS = 1e-10


def zyz_angles(unitary: np.ndarray) -> tuple[float, float, float]:
    """Euler angles (theta, phi, lam) with U ~ Rz(phi) Ry(theta) Rz(lam).

    Equality holds up to global phase. Handles the diagonal/anti-diagonal
    degenerate cases explicitly.
    """
    u = np.asarray(unitary, dtype=complex)
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    su = u / cmath.sqrt(det)
    a, b = su[0, 0], su[0, 1]
    theta = 2.0 * math.atan2(abs(b), abs(a))
    if abs(a) < _EPS:  # anti-diagonal: theta = pi
        phi_plus_lam = 0.0
        phi_minus_lam = 2.0 * cmath.phase(su[1, 0])
    elif abs(b) < _EPS:  # diagonal: theta = 0
        phi_plus_lam = 2.0 * cmath.phase(su[1, 1])
        phi_minus_lam = 0.0
    else:
        phi_plus_lam = 2.0 * cmath.phase(su[1, 1])
        phi_minus_lam = 2.0 * cmath.phase(su[1, 0])
    phi = 0.5 * (phi_plus_lam + phi_minus_lam)
    lam = 0.5 * (phi_plus_lam - phi_minus_lam)
    return theta, phi, lam


def u_to_basis_ops(theta: float, phi: float, lam: float, qubit: int) -> list[Gate]:
    """U(theta, phi, lam) on ``qubit`` as rz/sx ops (circuit order).

    Special-cases near-zero theta (pure rz) and theta ~ pi/2 (single sx)
    to keep transpiled gate counts realistic.
    """

    def rz(angle: float) -> Gate:
        return Gate("rz", (qubit,), (float(angle),))

    sx = Gate("sx", (qubit,))
    two_pi = 2.0 * math.pi
    theta_mod = theta % two_pi
    if abs(theta_mod) < _EPS or abs(theta_mod - two_pi) < _EPS:
        total = (phi + lam) % two_pi
        if abs(total) < _EPS or abs(total - two_pi) < _EPS:
            return []
        return [rz(total)]
    if abs(theta_mod - math.pi / 2) < _EPS:
        # U(pi/2, phi, lam) = rz(phi + pi/2) sx rz(lam - pi/2) up to phase.
        ops = []
        pre = (lam - math.pi / 2) % two_pi
        post = (phi + math.pi / 2) % two_pi
        if pre > _EPS and abs(pre - two_pi) > _EPS:
            ops.append(rz(pre))
        ops.append(sx)
        if post > _EPS and abs(post - two_pi) > _EPS:
            ops.append(rz(post))
        return ops
    # General case: two sx pulses.
    return [rz(lam), sx, rz(theta + math.pi), sx, rz(phi + 3.0 * math.pi)]


def _matrix_to_basis_ops(unitary: np.ndarray, qubit: int) -> list[Gate]:
    theta, phi, lam = zyz_angles(unitary)
    return u_to_basis_ops(theta, phi, lam, qubit)


#: ZYZ angles of every constant single-qubit gate, computed once; read-only.
_CONSTANT_ANGLES = {
    name: zyz_angles(spec.matrix_fn)
    for name, spec in GATE_SPECS.items()
    if spec.num_qubits == 1 and isinstance(spec.matrix_fn, np.ndarray)
}


# ----------------------------------------------------------------------
# Two-qubit decomposition rules (into cx + 1q ops on the same wires).
# ----------------------------------------------------------------------

def _decompose_2q(gate: Gate) -> list[Gate]:
    a, b = gate.qubits
    name = gate.name

    def h_ops(q: int) -> list[Gate]:
        return u_to_basis_ops(*_CONSTANT_ANGLES["h"], q)

    if name == "cx":
        return [gate]
    if name == "cz":
        return [*h_ops(b), Gate("cx", (a, b)), *h_ops(b)]
    if name == "swap":
        return [Gate("cx", (a, b)), Gate("cx", (b, a)), Gate("cx", (a, b))]
    if name == "rzz":
        (theta,) = gate.params
        return [
            Gate("cx", (a, b)),
            Gate("rz", (b,), (theta,)),
            Gate("cx", (a, b)),
        ]
    if name == "rxx":
        (theta,) = gate.params
        return [
            *h_ops(a),
            *h_ops(b),
            Gate("cx", (a, b)),
            Gate("rz", (b,), (theta,)),
            Gate("cx", (a, b)),
            *h_ops(a),
            *h_ops(b),
        ]
    if name == "cp":
        (lam,) = gate.params
        return [
            Gate("rz", (a,), (lam / 2.0,)),
            Gate("cx", (a, b)),
            Gate("rz", (b,), (-lam / 2.0,)),
            Gate("cx", (a, b)),
            Gate("rz", (b,), (lam / 2.0,)),
        ]
    if name == "crz":
        (theta,) = gate.params
        return [
            Gate("rz", (b,), (theta / 2.0,)),
            Gate("cx", (a, b)),
            Gate("rz", (b,), (-theta / 2.0,)),
            Gate("cx", (a, b)),
        ]
    if name == "ecr":
        # ECR = CX up to single-qubit dressings; on a cx-basis target we
        # keep the entangling core and absorb the dressing numerically.
        # ecr(a,b) = (sdg a)(sx b)?  Use exact relation via unitary synthesis:
        raise NotImplementedError(
            "ecr decomposition to cx basis is not supported; use cx targets"
        )
    raise NotImplementedError(f"no decomposition rule for {name!r}")


def decompose_to_basis(gate: Gate) -> list[Gate]:
    """Decompose one gate into basis ops (1q via ZYZ, 2q via CX rules)."""
    if not gate.is_unitary:
        return [gate]
    if gate.num_qubits == 1:
        if gate.name in ("rz", "sx", "x"):
            return [gate]
        angles = _CONSTANT_ANGLES.get(gate.name)
        if angles is not None:
            return u_to_basis_ops(*angles, gate.qubits[0])
        return _matrix_to_basis_ops(gate.matrix(), gate.qubits[0])
    return _decompose_2q(gate)


def fuse_1q_runs(circuit: Circuit) -> Circuit:
    """Fuse maximal runs of adjacent 1q unitaries into minimal rz/sx ops.

    Non-unitary ops and 2q gates act as fences. This is the optimization
    pass that keeps transpiled depth close to what production transpilers
    emit.
    """
    out = Circuit(circuit.num_qubits, circuit.name)
    out.metadata = dict(circuit.metadata)
    pending: dict[int, np.ndarray] = {}

    def flush(qubit: int) -> None:
        mat = pending.pop(qubit, None)
        if mat is None:
            return
        for op in _matrix_to_basis_ops(mat, qubit):
            out.append(op)

    for gate in circuit.ops:
        if gate.is_unitary and gate.num_qubits == 1:
            q = gate.qubits[0]
            acc = pending.get(q)
            mat = gate.matrix()
            pending[q] = mat if acc is None else mat @ acc
            continue
        for q in gate.qubits if gate.qubits else range(circuit.num_qubits):
            flush(q)
        out.append(gate)
    for q in list(pending):
        flush(q)
    return out


def decompose_circuit(circuit: Circuit) -> Circuit:
    """Decompose every op of ``circuit`` into the hardware basis."""
    out = Circuit(circuit.num_qubits, circuit.name)
    out.metadata = dict(circuit.metadata)
    for gate in circuit.ops:
        for op in decompose_to_basis(gate):
            out.append(op)
    return out
