"""Transpilation-cost proxy.

Cloud-scale simulations schedule ~1500 jobs/hour; running the full
transpiler per (job, QPU) pair would dominate wall time without changing
the trends. Instead we calibrate, once per QPU model and probe width, how
routing and basis decomposition inflate two-qubit counts and durations — by
running the *real* transpiler on a probe grid — and interpolate.  An entry
is calibrated the first time an interpolation reads it.

The proxy therefore stays faithful to the actual compiler (it is fitted to
it) while costing O(1) per job.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from ..backends.models import QPUModel
from ..circuits.metrics import CircuitMetrics
from ..simulation.noise import NoiseModel
from ..transpiler import Target, transpile
from ..workloads import qaoa_maxcut, random_circuit
from ..workloads.vqe import real_amplitudes

__all__ = ["TranspileProxy", "ProxyEntry"]


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

    #: Probe calibration is deterministic per (model, class, probe width) —
    #: fixed probe seeds, deterministic transpiler — so each entry is
    #: calibrated the first time it is read and shared process-wide.  The
    #: key is the frozen model itself: every field calibration reads.
    _SHARED_ENTRIES: dict[tuple[QPUModel, str, int], ProxyEntry] = {}

    def __init__(self) -> None:
        #: Memo of :meth:`physical_metrics` keyed on the metrics fingerprint
        #: (which fixes the routing class) and the model (the proxy is
        #: calibration-independent, so entries never go stale).
        self._pm_cache: dict[tuple, tuple[float, float, float]] = {}

    @staticmethod
    def _calibrate(model: QPUModel, cls: str, width: int) -> ProxyEntry:
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
        return ProxyEntry(
            width=width,
            swap_inflation=float(np.mean(sw)),
            depth_inflation=float(np.mean(dp)),
            ns_per_2q_layer=float(np.mean(ns)),
        )

    def entry(self, model: QPUModel, cls: str, width: int) -> ProxyEntry:
        """The entry at one probe width, calibrated on first use."""
        key = (model, cls, width)
        found = self._SHARED_ENTRIES.get(key)
        if found is None:
            found = self._SHARED_ENTRIES[key] = self._calibrate(model, cls, width)
        return found

    def _widths(self, model: QPUModel) -> list[int]:
        return [w for w in self.PROBE_WIDTHS if w <= model.num_qubits]

    def table(self, model: QPUModel, cls: str) -> list[ProxyEntry]:
        """Every entry of one (model, class), calibrating what is missing."""
        return [self.entry(model, cls, w) for w in self._widths(model)]

    # ------------------------------------------------------------------
    def physical_metrics(
        self, metrics: CircuitMetrics, model: QPUModel
    ) -> tuple[float, float, float]:
        """(physical_2q_gates, physical_1q_gates, duration_ns) estimates."""
        key = (metrics.fingerprint, model)
        cached = self._pm_cache.get(key)
        if cached is not None:
            return cached
        result = self._physical_metrics_uncached(metrics, model)
        self._pm_cache[key] = result
        return result

    def _physical_metrics_uncached(
        self, metrics: CircuitMetrics, model: QPUModel
    ) -> tuple[float, float, float]:
        widths = self._widths(model)
        w = float(min(metrics.num_qubits, widths[-1]))
        # The entries np.interp over the whole table would read: the one at
        # a probe width or past either end, else the two around ``w``.
        hi = bisect_left(widths, w)
        lo = hi if hi == 0 or widths[hi] == w else hi - 1
        read = widths[lo : hi + 1]
        table = [self.entry(model, metrics.routing_class, x) for x in read]
        xp = np.array(read, dtype=float)
        swap = float(np.interp(w, xp, [e.swap_inflation for e in table]))
        depth_infl = float(np.interp(w, xp, [e.depth_inflation for e in table]))
        ns_layer = float(np.interp(w, xp, [e.ns_per_2q_layer for e in table]))
        phys_2q = metrics.num_2q_gates * swap
        # Basis decomposition roughly doubles 1q count (ZYZ resynthesis) and
        # each inserted swap adds 3 CX worth of 1q dressing.
        phys_1q = metrics.num_1q_gates * 2.0 + 6.0 * max(
            0.0, phys_2q - metrics.num_2q_gates
        )
        two_q_depth = max(1.0, metrics.two_qubit_depth * depth_infl)
        duration_ns = two_q_depth * ns_layer + model.readout_duration_ns
        return phys_2q, phys_1q, duration_ns

