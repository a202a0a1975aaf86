"""Ground-truth execution model of the simulated quantum cloud.

Given a job's (transpile-proxied) physical metrics, a QPU's calibration
snapshot, and the job's mitigation stack, produces the "real" fidelity and
runtimes the cloud simulator records — the role the patched FakeBackends
play in the paper (§8.2).

Fidelity follows the component-wise ESP model
(:func:`repro.simulation.esp.esp_components` at circuit level; reproduced
here from aggregate metrics so it scales to 130-qubit jobs), with each
mitigation technique attacking its error component:

======== ============================== =========================
stack    effect                          cost
======== ============================== =========================
rem      readout log-error x 0.12        classical post x ~3
dd       decoherence log-error x 0.40    extra 1q pulses (small)
zne      gate log-error x 0.45,          3x shots, folded circuits
         decoherence x 1.3
twirling gate log-error x 0.90           4x circuit instances
======== ============================== =========================

The residual factors are validated against the trajectory simulator on small
circuits (``tests/test_cloud.py::TestExecutionModel::test_model_matches_trajectory_sim_smallscale``)
— measured properties of our own mitigation implementations, not free parameters.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from ..backends.calibration import CalibrationData
from ..backends.models import QPUModel
from ..circuits.metrics import CircuitMetrics
from ..mitigation.stack import STANDARD_STACKS
from ..simulation.esp import esp_to_hellinger
from .job import QuantumJob
from .proxy import TranspileProxy

__all__ = [
    "ExecutionRecord",
    "ExecutionModel",
    "MITIGATION_EFFECTS",
    "NOISE_BLOCK_ROWS",
    "speed_factor",
]

#: Residual fractions of each log-error component per technique, plus cost
#: multipliers. Validated against the trajectory simulator.
MITIGATION_EFFECTS: dict[str, dict[str, float]] = {
    "rem": {"readout": 0.12, "classical_mult": 3.0},
    "dd": {"decoherence": 0.40, "gate_add_frac": 0.04},
    "zne": {"gate": 0.45, "decoherence_mult": 1.3, "shot_mult": 3.0,
            "classical_mult": 1.5},
    "twirling": {"gate": 0.90, "shot_mult": 4.0, "classical_mult": 1.3},
}

#: Fixed per-job overheads (seconds). The setup charge covers job handoff,
#: binding, and control-electronics configuration — IBM jobs pay tens of
#: seconds of per-job overhead beyond raw shots.  A job holds its QPU for
#: 11–15 s, so 8 QPUs serve at most ~2,300 jobs/hour: the paper's 1,500/h
#: stays below that, and Fig. 9b finds the fleet saturated from 3,000/h.
QPU_SETUP_SECONDS = 10.0
SHOT_OVERHEAD_US = 400.0  # per-shot reset/readout dead time
CLASSICAL_BASE_SECONDS = 1.5  # transpile + packaging per circuit instance

#: Executions' noise rows :meth:`ExecutionModel.noise_rows` draws per
#: ``standard_normal`` call on a generator it alone reads.
NOISE_BLOCK_ROWS = 256


def speed_factor(calibration: CalibrationData, model: QPUModel) -> float:
    """How much slower than its model's nominal gates a calibrated device
    runs: its mean 2q gate duration over the model's (1.0 without 2q
    gates).  Schedules, setup and per-shot dead time all scale by it."""
    if not calibration.noise_model.gates_2q:
        return 1.0
    return calibration.aggregates().duration_2q_ns / model.duration_2q_ns


@dataclass(frozen=True)
class ExecutionRecord:
    """The cloud's ground truth for one executed job."""

    fidelity: float
    quantum_seconds: float
    classical_pre_seconds: float
    classical_post_seconds: float


class ExecutionModel:
    """Maps (job, calibration) -> ground-truth outcome, with noise.

    ``seed`` seeds :attr:`rng`, the model's own generator for a caller
    that has none; the simulator, the dataset builder and Fig. 7 bring
    theirs.
    """

    def __init__(
        self,
        *,
        proxy: TranspileProxy | None = None,
        seed: int | None = None,
    ) -> None:
        self.proxy = proxy or TranspileProxy()
        #: Scales of an execution's four standard-normal draws, in draw
        #: order: 0.04 on the fidelity, 0.02 on each of the three runtimes.
        self._sigmas = np.array([0.04] + [0.02] * 3)
        self.rng = np.random.default_rng(seed)
        #: What :meth:`execute` derives before its first draw, keyed on
        #: (metrics fingerprint, mitigation, calibration epoch, model name):
        #: (fidelity, shot_mult, setup_s, per_shot_s, pre_s, post_s).  The
        #: epoch (qpu_name, cycle) changes on recalibration, so entries can
        #: never be served stale; :meth:`on_recalibration` drops them for
        #: memory.
        self._outcome_cache: dict[tuple, tuple[float, ...]] = {}

    def on_recalibration(self, qpus=None) -> None:
        """Drop the memo (its calibration epochs just died)."""
        self._outcome_cache.clear()

    # ------------------------------------------------------------------
    def log_error_components(
        self, metrics: CircuitMetrics, calibration: CalibrationData, model: QPUModel
    ) -> dict[str, float]:
        """Aggregate-metric version of :func:`esp_components`."""
        agg = calibration.aggregates()
        phys_2q, phys_1q, duration_ns = self.proxy.physical_metrics(metrics, model)
        # The proxy is calibrated at the model's nominal gate speed;
        # scale schedules by the calibrated 2q duration.
        duration_ns = duration_ns * speed_factor(calibration, model)
        log_gate = phys_2q * math.log1p(-min(agg.error_2q, 0.5)) + phys_1q * math.log1p(
            -min(agg.error_1q, 0.5)
        )
        log_ro = metrics.num_measurements * math.log1p(-min(agg.readout_error, 0.5))
        inv_tphi = max(0.0, 1.0 / agg.t2_us - 0.5 / agg.t1_us)
        dur_us = duration_ns / 1000.0
        # Occupancy 0.25: qubits spend much of the schedule in
        # computational-basis populations or echoed by circuit structure,
        # so the effective exposure to T1/Tphi is well below the full
        # critical path.
        log_decoh = -dur_us * metrics.num_qubits * 0.25 * (1.0 / agg.t1_us + inv_tphi)
        return {
            "gate": log_gate,
            "readout": log_ro,
            "decoherence": log_decoh,
            "duration_ns": duration_ns,
        }

    def mitigated_components(
        self, components: dict[str, float], mitigation: str
    ) -> tuple[dict[str, float], float, float]:
        """Apply the stack's effects; returns (components, shot_mult, classical_mult)."""
        techniques = STANDARD_STACKS.get(mitigation)
        if techniques is None:
            raise KeyError(f"unknown mitigation preset {mitigation!r}")
        comp = dict(components)
        shot_mult = 1.0
        classical_mult = 1.0
        for tech in techniques:
            eff = MITIGATION_EFFECTS[tech]
            if "readout" in eff:
                comp["readout"] *= eff["readout"]
            if "gate" in eff:
                comp["gate"] *= eff["gate"]
            if "decoherence" in eff:
                comp["decoherence"] *= eff["decoherence"]
            if "decoherence_mult" in eff:
                comp["decoherence"] *= eff["decoherence_mult"]
            if "gate_add_frac" in eff:  # DD pulses add a little gate error
                comp["gate"] += components["gate"] * eff["gate_add_frac"]
            shot_mult *= eff.get("shot_mult", 1.0)
            classical_mult *= eff.get("classical_mult", 1.0)
        return comp, shot_mult, classical_mult

    # ------------------------------------------------------------------
    def _noise_free(
        self, metrics: CircuitMetrics, mitigation: str, calibration: CalibrationData,
        model: QPUModel,
    ) -> tuple[float, ...]:
        """The part of an execution that is fixed until the next
        recalibration (memoized; see ``_outcome_cache``)."""
        key = (metrics.fingerprint, mitigation, calibration.epoch, model.name)
        outcome = self._outcome_cache.get(key)
        if outcome is None:
            raw = self.log_error_components(metrics, calibration, model)
            comp, shot_mult, classical_mult = self.mitigated_components(raw, mitigation)
            esp = math.exp(comp["gate"] + comp["readout"] + comp["decoherence"])
            # Per-shot dead time (reset/readout) runs on the same control
            # electronics as the gates, so it scales with the device's speed.
            speed = speed_factor(calibration, model)
            outcome = self._outcome_cache[key] = (
                esp_to_hellinger(esp, metrics.num_qubits),
                shot_mult,
                QPU_SETUP_SECONDS * speed,
                (raw["duration_ns"] / 1e9) + SHOT_OVERHEAD_US / 1e6 * speed,
                CLASSICAL_BASE_SECONDS * (1.0 + metrics.size / 400.0),
                CLASSICAL_BASE_SECONDS * (classical_mult - 1.0) * (
                    1.0 + metrics.num_qubits / 24.0
                ),
            )
        return outcome

    def expected_fidelity(
        self, job: QuantumJob, calibration: CalibrationData, model: QPUModel
    ) -> float:
        """Noise-free expectation (used by tests and the oracle ablation)."""
        return self._noise_free(job.metrics, job.mitigation, calibration, model)[0]

    def noise(self, rng: np.random.Generator) -> list[float]:
        """One execution's four log-normal factors, one row drawn from
        ``rng``: ``standard_normal(4) * sigmas`` is the four
        ``normal(0, sigma)`` draws in order (``normal`` is
        ``loc + scale * z``), so the stream and the bits are theirs.  For
        a caller whose generator also draws other things between
        executions."""
        return np.exp(rng.standard_normal(4) * self._sigmas).tolist()

    def noise_rows(self, rng: np.random.Generator) -> Iterator[list[float]]:
        """:meth:`noise`'s rows, in order, drawn :data:`NOISE_BLOCK_ROWS`
        at a time: a ``(rows, 4)`` draw fills row by row, so row ``k`` is
        the ``k``-th one-row draw, value for value.  Only for a generator
        nothing else reads — the block runs ahead of its consumer."""
        sigmas = self._sigmas
        while True:
            yield from np.exp(
                rng.standard_normal((NOISE_BLOCK_ROWS, 4)) * sigmas
            ).tolist()

    def execute(
        self,
        job: QuantumJob,
        calibration: CalibrationData,
        model: QPUModel,
        noise: Sequence[float],
    ) -> ExecutionRecord:
        """One noisy ground-truth execution: the epoch's noise-free outcome
        times ``noise``, the four log-normal factors of a :meth:`noise`
        row or of :meth:`noise_rows` (fidelity, quantum, pre, post)."""
        fid, shot_mult, setup_s, per_shot_s, pre_s, post_s = self._noise_free(
            job.metrics, job.mitigation, calibration, model
        )
        return ExecutionRecord(
            fidelity=min(1.0, max(0.0, fid * noise[0])),
            quantum_seconds=(setup_s + job.shots * shot_mult * per_shot_s) * noise[1],
            classical_pre_seconds=pre_s * noise[2],
            classical_post_seconds=post_s * noise[3],
        )
