"""Calibration-data generation.

Produces per-QPU :class:`~repro.simulation.noise.NoiseModel` snapshots the
way IBM's periodic calibration procedure does (§2.1): every qubit and gate
gets its own figure drawn around the model baseline, scaled by the device's
*quality factor* — the knob that creates the spatial performance variance of
Fig. 2(b) — and re-drawn every calibration cycle with temporal drift
(see :mod:`repro.backends.drift`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..simulation.noise import GateNoise, NoiseModel, QubitNoise
from .models import QPUModel

__all__ = [
    "CalibrationAggregates",
    "CalibrationData",
    "sample_calibration",
    "average_calibrations",
]

@dataclass(frozen=True)
class CalibrationData:
    """One calibration snapshot of one QPU (a recalibration makes a new
    one; nothing assigns a field after construction)."""

    qpu_name: str
    model_name: str
    cycle: int
    noise_model: NoiseModel
    quality_factor: float
    #: Memo of values derived from this snapshot (:meth:`aggregates`, feature
    #: rows); a recalibration makes a new snapshot, so nothing invalidates it.
    derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def epoch(self) -> tuple[str, int]:
        """Cache-invalidation key: a fresh snapshot means a fresh epoch.
        Built on first read; the snapshot is frozen, so it cannot go stale."""
        return (self.qpu_name, self.cycle)

    @property
    def mean_readout_error(self) -> float:
        return self.noise_model.mean_readout_error()

    def aggregates(self) -> "CalibrationAggregates":
        """Scalar summaries used by estimators, computed once per snapshot.

        Hot paths touch these per (job, QPU) pair; recomputing the means
        over every qubit/gate each time dominated estimation cost.
        """
        agg = self.derived.get("aggregates")
        if agg is None:
            nm = self.noise_model
            if nm.gates_2q:
                dur_2q = float(
                    np.mean([g.duration_ns for g in nm.gates_2q.values()])
                )
            else:
                dur_2q = nm.default_2q.duration_ns
            agg = CalibrationAggregates(
                t1_us=float(np.mean([q.t1_us for q in nm.qubits])),
                t2_us=float(np.mean([q.t2_us for q in nm.qubits])),
                error_2q=nm.mean_gate_error_2q(),
                error_1q=nm.mean_gate_error_1q(),
                readout_error=nm.mean_readout_error(),
                duration_2q_ns=dur_2q,
            )
            self.derived["aggregates"] = agg
        return agg

    def summary(self) -> dict:
        nm = self.noise_model
        return {
            "qpu": self.qpu_name,
            "cycle": self.cycle,
            "quality_factor": round(self.quality_factor, 4),
            "mean_t1_us": round(float(np.mean([q.t1_us for q in nm.qubits])), 2),
            "mean_t2_us": round(float(np.mean([q.t2_us for q in nm.qubits])), 2),
            "mean_error_1q": nm.mean_gate_error_1q(),
            "mean_error_2q": nm.mean_gate_error_2q(),
            "mean_readout_error": nm.mean_readout_error(),
        }


@dataclass(frozen=True)
class CalibrationAggregates:
    """Fleet-wide scalar view of one calibration snapshot."""

    t1_us: float
    t2_us: float
    error_2q: float
    error_1q: float
    readout_error: float
    duration_2q_ns: float


def sample_calibration(
    model: QPUModel,
    qpu_name: str,
    quality_factor: float,
    cycle: int,
    rng: np.random.Generator,
) -> CalibrationData:
    """Draw a full calibration snapshot.

    ``quality_factor`` scales error rates multiplicatively (>1 = worse) and
    divides coherence times. Per-qubit/per-gate dispersion is lognormal with
    sigma 0.35, mirroring the heavy-tailed spread of real calibration data.
    """
    if quality_factor <= 0:
        raise ValueError("quality_factor must be positive")
    n = model.num_qubits

    def lognorm(size: int) -> np.ndarray:
        return np.exp(rng.normal(0.0, 0.35, size))

    t1 = model.base_t1_us / quality_factor * lognorm(n)
    t2_raw = model.base_t2_us / quality_factor * lognorm(n)
    # Physical constraint: T2 <= 2 T1.
    t2 = np.minimum(t2_raw, 2.0 * t1 * 0.98)
    ro = np.clip(model.base_readout_error * quality_factor * lognorm(n), 1e-4, 0.4)
    asym = rng.uniform(0.8, 1.6, n)  # P(1|0) vs P(0|1) asymmetry

    qubits = [
        QubitNoise(
            t1_us=float(max(5.0, t1[i])),
            t2_us=float(max(3.0, t2[i])),
            readout_p01=float(min(0.45, ro[i] / asym[i])),
            readout_p10=float(min(0.45, ro[i] * asym[i])),
        )
        for i in range(n)
    ]

    e1 = np.clip(model.base_error_1q * quality_factor * lognorm(n), 1e-6, 0.05)
    gates_1q: dict[tuple[str, int], GateNoise] = {}
    for q in range(n):
        for gate_name in ("sx", "x"):
            gates_1q[(gate_name, q)] = GateNoise(
                float(e1[q]), model.duration_1q_ns
            )

    edges = list(model.coupling)
    e2 = np.clip(
        model.base_error_2q * quality_factor * lognorm(len(edges)), 1e-5, 0.25
    )
    # Device-level gate-speed factor: control electronics and pulse
    # calibrations make whole devices systematically faster or slower,
    # which is what differentiates execution-time estimates across QPUs.
    speed = float(rng.uniform(0.75, 1.35))
    dur2 = model.duration_2q_ns * speed * rng.uniform(0.9, 1.15, len(edges))
    gates_2q = {
        (min(a, b), max(a, b)): GateNoise(float(e2[i]), float(dur2[i]))
        for i, (a, b) in enumerate(edges)
    }

    nm = NoiseModel(
        qubits=qubits,
        gates_1q=gates_1q,
        gates_2q=gates_2q,
        default_1q=GateNoise(
            float(model.base_error_1q * quality_factor), model.duration_1q_ns
        ),
        default_2q=GateNoise(
            float(model.base_error_2q * quality_factor),
            model.duration_2q_ns * speed,
        ),
        readout_duration_ns=model.readout_duration_ns,
    )
    return CalibrationData(
        qpu_name=qpu_name,
        model_name=model.name,
        cycle=cycle,
        noise_model=nm,
        quality_factor=quality_factor,
    )


def average_calibrations(
    calibrations: list[CalibrationData], template_name: str
) -> CalibrationData:
    """Average several same-model calibrations into a template snapshot (§6).

    Template QPUs keep the model's coupling map and basis gates but use the
    fleet-average of every noise figure.
    """
    if not calibrations:
        raise ValueError("need at least one calibration to average")
    model_names = {c.model_name for c in calibrations}
    if len(model_names) != 1:
        raise ValueError(f"cannot average across models: {model_names}")
    n = calibrations[0].noise_model.num_qubits
    mats = [c.noise_model for c in calibrations]

    qubits = []
    for q in range(n):
        qubits.append(
            QubitNoise(
                t1_us=float(np.mean([m.qubits[q].t1_us for m in mats])),
                t2_us=float(np.mean([m.qubits[q].t2_us for m in mats])),
                readout_p01=float(np.mean([m.qubits[q].readout_p01 for m in mats])),
                readout_p10=float(np.mean([m.qubits[q].readout_p10 for m in mats])),
            )
        )
    keys_1q = set().union(*(m.gates_1q.keys() for m in mats))
    gates_1q = {
        k: GateNoise(
            float(np.mean([m.gates_1q[k].error for m in mats if k in m.gates_1q])),
            float(
                np.mean([m.gates_1q[k].duration_ns for m in mats if k in m.gates_1q])
            ),
        )
        for k in keys_1q
    }
    keys_2q = set().union(*(m.gates_2q.keys() for m in mats))
    gates_2q = {
        k: GateNoise(
            float(np.mean([m.gates_2q[k].error for m in mats if k in m.gates_2q])),
            float(
                np.mean([m.gates_2q[k].duration_ns for m in mats if k in m.gates_2q])
            ),
        )
        for k in keys_2q
    }
    nm = NoiseModel(
        qubits=qubits,
        gates_1q=gates_1q,
        gates_2q=gates_2q,
        default_1q=mats[0].default_1q,
        default_2q=mats[0].default_2q,
        readout_duration_ns=mats[0].readout_duration_ns,
    )
    return CalibrationData(
        qpu_name=template_name,
        model_name=calibrations[0].model_name,
        cycle=calibrations[0].cycle,
        noise_model=nm,
        quality_factor=float(np.mean([c.quality_factor for c in calibrations])),
    )
