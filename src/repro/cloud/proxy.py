"""Transpilation-cost and estimation proxies.

Cloud-scale simulations schedule ~1500 jobs/hour; running the full
transpiler per (job, QPU) pair would dominate wall time without changing
the trends. Instead we calibrate, once per QPU model, how routing and
basis decomposition inflate two-qubit counts and durations — by running the
*real* transpiler on a probe grid — and interpolate.

The proxy therefore stays faithful to the actual compiler (it is fitted to
it) while costing O(1) per job.

:class:`AnalyticEstimateSource` is the estimation-side counterpart: an
:class:`~repro.estimator.source.EstimateSource` that scores whole job
blocks with the closed-form ESP model instead of trained regressors —
the cheap analytic proxy for runs that skip estimator training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..backends.models import QPUModel
from ..backends.qpu import QPU
from ..circuits.metrics import CircuitMetrics
from ..simulation.esp import esp_components_batch, esp_to_hellinger_batch
from ..simulation.noise import NoiseModel
from ..transpiler import Target, transpile
from ..workloads import qaoa_maxcut, random_circuit
from ..workloads.vqe import real_amplitudes
from .job import QuantumJob, feasibility_matrix

__all__ = ["TranspileProxy", "ProxyEntry", "AnalyticEstimateSource"]


@dataclass(frozen=True)
class ProxyEntry:
    """Fitted inflation factors at one probe width."""

    width: int
    swap_inflation: float  # physical 2q gates / logical 2q gates
    depth_inflation: float
    ns_per_2q_layer: float  # schedule duration per two-qubit-depth unit


def _probes_for(cls: str, width: int) -> list:
    """Probe circuits matching one routing class at one width."""
    if cls == "linear":
        probes = []
        if width >= 3:
            probes.append(real_amplitudes(width, reps=2, seed=5))
        from ..workloads import ghz_linear

        probes.append(ghz_linear(max(2, width)))
        return probes
    if cls == "sparse":
        return [
            qaoa_maxcut(max(2, width), p_layers=1, seed=7),
            random_circuit(
                width,
                depth=max(2, width // 2),
                two_qubit_prob=0.3,
                seed=11,
                measure=True,
            ),
        ]
    # dense
    from ..workloads import qft

    probes = [
        random_circuit(
            width, depth=max(2, width), two_qubit_prob=0.6, seed=13, measure=True
        )
    ]
    if width <= 16:
        probes.append(qft(max(2, width), measure=True))
    return probes


class TranspileProxy:
    """Per-(model, routing-class) interpolation of transpilation overheads."""

    #: Probe widths; capped at each model's qubit count.
    PROBE_WIDTHS = (2, 4, 8, 12, 16, 20, 27)
    CLASSES = ("linear", "sparse", "dense")

    #: Probe calibration is deterministic per (model, class) — fixed probe
    #: seeds, deterministic transpiler — so tables are shared process-wide
    #: instead of being re-fitted by every proxy instance.
    _SHARED_TABLES: dict[tuple[str, str], list[ProxyEntry]] = {}

    def __init__(self, *, share_tables: bool = True) -> None:
        self._tables: dict[tuple[str, str], list[ProxyEntry]] = (
            self._SHARED_TABLES if share_tables else {}
        )
        #: Memo of :meth:`physical_metrics` keyed on the metrics fingerprint
        #: and model name (the proxy is calibration-independent, so entries
        #: never go stale).
        self._pm_cache: dict[tuple, tuple[float, float, float]] = {}

    def _calibrate(self, model: QPUModel, cls: str) -> list[ProxyEntry]:
        nm = NoiseModel.uniform(
            model.num_qubits,
            edges=list(model.coupling),
            duration_2q_ns=model.duration_2q_ns,
            duration_1q_ns=model.duration_1q_ns,
        )
        target = Target(
            num_qubits=model.num_qubits,
            coupling=model.coupling,
            basis_gates=model.basis_gates,
            noise_model=nm,
        )
        entries: list[ProxyEntry] = []
        for width in self.PROBE_WIDTHS:
            if width > model.num_qubits:
                break
            sw, dp, ns = [], [], []
            for probe in _probes_for(cls, width):
                res = transpile(probe, target)
                logical_2q = max(1, sum(
                    1 for g in probe.ops if g.is_unitary and g.num_qubits == 2
                ))
                sw.append(res.metrics.num_2q_gates / logical_2q)
                dp.append(
                    max(1, res.metrics.two_qubit_depth)
                    / max(1, probe.depth(two_qubit_only=True))
                )
                two_q_depth = max(1, res.metrics.two_qubit_depth)
                ns.append(
                    max(0.0, res.duration_ns - model.readout_duration_ns)
                    / two_q_depth
                )
            entries.append(
                ProxyEntry(
                    width=width,
                    swap_inflation=float(np.mean(sw)),
                    depth_inflation=float(np.mean(dp)),
                    ns_per_2q_layer=float(np.mean(ns)),
                )
            )
        return entries

    @staticmethod
    def _table_key(model: QPUModel, cls: str) -> tuple:
        # Name alone is not guaranteed unique across model variants; include
        # the parameters the probe fits actually depend on.
        return (
            model.name,
            model.num_qubits,
            model.duration_2q_ns,
            model.duration_1q_ns,
            cls,
        )

    def table(self, model: QPUModel, cls: str = "sparse") -> list[ProxyEntry]:
        key = self._table_key(model, cls)
        if key not in self._tables:
            self._tables[key] = self._calibrate(model, cls)
        return self._tables[key]

    # ------------------------------------------------------------------
    def physical_metrics(
        self, metrics: CircuitMetrics, model: QPUModel
    ) -> tuple[float, float, float]:
        """(physical_2q_gates, physical_1q_gates, duration_ns) estimates."""
        key = (metrics.fingerprint, self._table_key(model, metrics.routing_class))
        cached = self._pm_cache.get(key)
        if cached is not None:
            return cached
        result = self._physical_metrics_uncached(metrics, model)
        self._pm_cache[key] = result
        return result

    def _physical_metrics_uncached(
        self, metrics: CircuitMetrics, model: QPUModel
    ) -> tuple[float, float, float]:
        table = self.table(model, metrics.routing_class)
        widths = np.array([e.width for e in table], dtype=float)
        w = float(min(metrics.num_qubits, widths[-1]))
        swap = float(np.interp(w, widths, [e.swap_inflation for e in table]))
        depth_infl = float(np.interp(w, widths, [e.depth_inflation for e in table]))
        ns_layer = float(np.interp(w, widths, [e.ns_per_2q_layer for e in table]))
        phys_2q = metrics.num_2q_gates * swap
        # Basis decomposition roughly doubles 1q count (ZYZ resynthesis) and
        # each inserted swap adds 3 CX worth of 1q dressing.
        phys_1q = metrics.num_1q_gates * 2.0 + 6.0 * max(
            0.0, phys_2q - metrics.num_2q_gates
        )
        two_q_depth = max(1.0, metrics.two_qubit_depth * depth_infl)
        duration_ns = two_q_depth * ns_layer + model.readout_duration_ns
        return phys_2q, phys_1q, duration_ns


class AnalyticEstimateSource:
    """Closed-form ESP scoring of (job, QPU) blocks.

    An :class:`~repro.estimator.source.EstimateSource` whose
    :meth:`estimate_block` evaluates the analytic error-suppression
    probability of every feasible pair in one batched
    :func:`~repro.simulation.esp.esp_components_batch` call per QPU —
    fidelity is the Hellinger-adjusted ESP, runtime the schedule duration
    plugged into the cloud shot/setup cost model.  Jobs must retain their
    circuits (``keep_circuit=True``); cloud-scale streams that drop them
    should use the trained estimator instead.
    """

    name = "analytic_esp"

    def __call__(self, job: QuantumJob, qpu: QPU) -> tuple[float, float]:
        fid, sec = self.estimate_block([job], [qpu])
        return float(fid[0, 0]), float(sec[0, 0])

    def estimate_block(
        self,
        jobs: list[QuantumJob],
        qpus: list[QPU],
        feasible: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(fidelity, exec_seconds) matrices over ``jobs`` x ``qpus``.

        Infeasible pairs stay zero and are never evaluated (the ESP walk
        indexes the QPU's noise arrays by circuit qubit, so feasibility
        also guards the width bound).
        """
        # Imported lazily: execution imports this module at load time.
        from .execution import SHOT_OVERHEAD_US, QPU_SETUP_SECONDS

        n, m = len(jobs), len(qpus)
        fid = np.zeros((n, m))
        sec = np.zeros((n, m))
        if feasible is None:
            feasible = feasibility_matrix(jobs, qpus)
        widths = np.array([j.num_qubits for j in jobs], dtype=int)
        shots = np.array([j.shots for j in jobs], dtype=float)
        for k, qpu in enumerate(qpus):
            idx = np.flatnonzero(feasible[:, k])
            if idx.size == 0:
                continue
            circuits = []
            for i in idx:
                if jobs[i].circuit is None:
                    raise ValueError(
                        "AnalyticEstimateSource needs job circuits; job "
                        f"{jobs[i].job_id} was created with keep_circuit=False"
                    )
                circuits.append(jobs[i].circuit)
            comps = esp_components_batch(circuits, qpu.noise_model)
            esp_values = np.exp(
                comps["gate"] + comps["readout"] + comps["decoherence"]
            )
            fid[idx, k] = esp_to_hellinger_batch(esp_values, widths[idx])
            per_shot_s = comps["duration_ns"] / 1e9 + SHOT_OVERHEAD_US / 1e6
            sec[idx, k] = QPU_SETUP_SECONDS + shots[idx] * per_shot_s
        return fid, sec

    def on_recalibration(self, qpus: list[QPU]) -> None:
        """Stateless: nothing to invalidate, fresh noise models are read
        from the QPUs on every block."""
