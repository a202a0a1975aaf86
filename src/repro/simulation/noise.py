"""Noise model: per-qubit and per-gate error parameters.

A :class:`NoiseModel` carries exactly the quantities IBM publishes in its
calibration snapshots (the paper's §2.1): T1/T2 times, single- and two-qubit
gate error rates and durations, and per-qubit readout error probabilities.
The trajectory simulator consumes it stochastically; the analytic ESP model
consumes it multiplicatively; the numerical estimation baseline (Fig. 7)
traverses circuits against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["QubitNoise", "GateNoise", "NoiseModel"]


@dataclass(frozen=True)
class QubitNoise:
    """Calibration data of a single physical qubit."""

    t1_us: float  # amplitude-damping time constant, microseconds
    t2_us: float  # dephasing time constant, microseconds
    readout_p01: float  # P(read 1 | prepared 0)
    readout_p10: float  # P(read 0 | prepared 1)

    def __post_init__(self) -> None:
        if self.t1_us <= 0 or self.t2_us <= 0:
            raise ValueError("T1/T2 must be positive")
        for p in (self.readout_p01, self.readout_p10):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"readout error {p} outside [0, 1]")

    @property
    def readout_error(self) -> float:
        """Symmetrized assignment error (what dashboards report)."""
        return 0.5 * (self.readout_p01 + self.readout_p10)


@dataclass(frozen=True)
class GateNoise:
    """Calibration data of one gate type on one qubit (or edge)."""

    error: float  # average gate error rate in [0, 1)
    duration_ns: float  # gate duration in nanoseconds

    def __post_init__(self) -> None:
        if not 0.0 <= self.error < 1.0:
            raise ValueError(f"gate error {self.error} outside [0, 1)")
        if self.duration_ns < 0:
            raise ValueError("duration must be non-negative")


_VIRTUAL_RZ = GateNoise(0.0, 0.0)


@dataclass
class NoiseModel:
    """Complete noise description of a QPU.

    Attributes
    ----------
    qubits:
        Per-qubit :class:`QubitNoise`, indexed by physical qubit.
    gates_1q:
        ``(gate_name, qubit) -> GateNoise``. Missing entries fall back to
        ``default_1q``.
    gates_2q:
        ``(qubit_a, qubit_b) -> GateNoise`` with the edge stored sorted.
    """

    qubits: list[QubitNoise]
    gates_1q: dict[tuple[str, int], GateNoise] = field(default_factory=dict)
    gates_2q: dict[tuple[int, int], GateNoise] = field(default_factory=dict)
    default_1q: GateNoise = field(default_factory=lambda: GateNoise(3e-4, 35.0))
    default_2q: GateNoise = field(default_factory=lambda: GateNoise(8e-3, 300.0))
    readout_duration_ns: float = 800.0

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    # ------------------------------------------------------------------
    def gate_noise(self, name: str, qubits: tuple[int, ...]) -> GateNoise:
        """Look up the noise entry for a gate instance (with fallbacks)."""
        if len(qubits) == 2:
            edge = (min(qubits), max(qubits))
            return self.gates_2q.get(edge, self.default_2q)
        key = (name, qubits[0])
        if key in self.gates_1q:
            return self.gates_1q[key]
        # rz is virtual (frame change) on IBM hardware: error-free, 0 ns.
        if name == "rz":
            return _VIRTUAL_RZ
        return self.default_1q

    def decoherence_probs(self, qubit: int, duration_ns: float) -> tuple[float, float]:
        """(p_amplitude_damp, p_phase_damp) over an idle window.

        p_ad = 1 - exp(-t/T1);  pure dephasing rate 1/T_phi = 1/T2 - 1/(2 T1).
        """
        q = self.qubits[qubit]
        t_us = duration_ns / 1000.0
        p_ad = 1.0 - np.exp(-t_us / q.t1_us)
        inv_tphi = max(0.0, 1.0 / q.t2_us - 0.5 / q.t1_us)
        p_pd = 1.0 - np.exp(-t_us * inv_tphi) if inv_tphi > 0 else 0.0
        return float(p_ad), float(p_pd)

    def confusion_matrix(self, qubit: int) -> np.ndarray:
        """2x2 readout confusion matrix M[i, j] = P(read i | prepared j)."""
        q = self.qubits[qubit]
        return np.array(
            [
                [1.0 - q.readout_p01, q.readout_p10],
                [q.readout_p01, 1.0 - q.readout_p10],
            ]
        )

    def mean_gate_error_1q(self) -> float:
        if not self.gates_1q:
            return self.default_1q.error
        return float(np.mean([g.error for g in self.gates_1q.values()]))

    def mean_gate_error_2q(self) -> float:
        if not self.gates_2q:
            return self.default_2q.error
        return float(np.mean([g.error for g in self.gates_2q.values()]))

    def mean_readout_error(self) -> float:
        return float(np.mean([q.readout_error for q in self.qubits]))

    def scaled(self, factor: float) -> "NoiseModel":
        """Return a copy with all gate/readout error rates scaled by ``factor``.

        Used by ZNE noise amplification and by what-if ablations. Error rates
        are clipped to stay valid probabilities.
        """

        def clip(p: float) -> float:
            return float(min(0.999, max(0.0, p * factor)))

        qubits = [
            QubitNoise(
                t1_us=q.t1_us / max(factor, 1e-9),
                t2_us=q.t2_us / max(factor, 1e-9),
                readout_p01=clip(q.readout_p01),
                readout_p10=clip(q.readout_p10),
            )
            for q in self.qubits
        ]
        g1 = {
            k: GateNoise(clip(v.error), v.duration_ns) for k, v in self.gates_1q.items()
        }
        g2 = {
            k: GateNoise(clip(v.error), v.duration_ns) for k, v in self.gates_2q.items()
        }
        return NoiseModel(
            qubits=qubits,
            gates_1q=g1,
            gates_2q=g2,
            default_1q=GateNoise(clip(self.default_1q.error), self.default_1q.duration_ns),
            default_2q=GateNoise(clip(self.default_2q.error), self.default_2q.duration_ns),
            readout_duration_ns=self.readout_duration_ns,
        )

    # ------------------------------------------------------------------
    @classmethod
    def uniform(
        cls,
        num_qubits: int,
        *,
        duration_1q_ns: float = 35.0,
        duration_2q_ns: float = 300.0,
        edges: list[tuple[int, int]] | None = None,
    ) -> "NoiseModel":
        """A homogeneous noise model at a typical device's levels: T1
        150 us, T2 110 us, 1.5% readout error, 1q error 3e-4 and 2q error
        8e-3 on every qubit and gate."""
        qubits = [QubitNoise(150.0, 110.0, 0.015, 0.015) for _ in range(num_qubits)]
        g2 = {}
        if edges:
            for a, b in edges:
                g2[(min(a, b), max(a, b))] = GateNoise(8e-3, duration_2q_ns)
        return cls(
            qubits=qubits,
            gates_2q=g2,
            default_1q=GateNoise(3e-4, duration_1q_ns),
            default_2q=GateNoise(8e-3, duration_2q_ns),
        )
