"""Stochastic (quantum-trajectory) noisy simulation.

Noise is injected between ideal gates along the circuit's ASAP schedule
(:func:`~repro.simulation.schedule.schedule_circuit`):

* **Gate errors** — after every unitary gate, a depolarizing-style Pauli
  error fires on each involved qubit with the gate's calibrated error
  probability.
* **Amplitude damping** — stochastic jumps toward |0> accumulate over both
  gate durations and idle windows, with probability ``1 - exp(-t/T1)``.
* **Dephasing** — split into a *quasi-static* component (a per-trajectory,
  per-qubit frequency detuning applied as a coherent RZ over elapsed time —
  this is the part dynamical-decoupling pulses genuinely refocus) and a
  *Markovian* component (stochastic Z flips, irrefocusable).
* **Readout errors** — per-qubit confusion matrices applied to the final
  distribution (:mod:`repro.simulation.readout`).

All trajectories evolve together as one ``(num_trajectories, 2**n)``
array: each gate is a single batched contraction
(:func:`~repro.simulation.statevector.apply_matrix_batched`), quasi-static
phases broadcast per trajectory, and stochastic Pauli kicks apply to the
masked sub-batch where they fire.  Averaging the batch converges to the
density-matrix result at statevector cost — this plays the role Qiskit
Aer's noisy FakeBackends play in the paper's evaluation (§8.2).

RNG contract: randomness is drawn in **fixed-shape batches** in schedule
order — one ``(T, n)`` normal for the detunings (bit-identical to ``T``
sequential per-trajectory draws from the same stream), then one
length-``T`` draw per decision point (decoherence window, or noisy gate's
fire/victim/pauli triple — victim and pauli are drawn unconditionally so
the stream never depends on which trajectories fire).  The draw pass and
the evolution pass are split (:meth:`NoisySimulator._draw_randomness` /
:meth:`NoisySimulator._evolve_trajectories`), so the same draws can be
replayed per trajectory to verify the batched contractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.gates import gate_matrix
from .noise import NoiseModel
from .readout import apply_readout_noise_probs
from .schedule import schedule_circuit
from .statevector import apply_matrix_batched, sample_counts

__all__ = ["NoisySimulator", "NoisyResult", "QUASI_STATIC_FRACTION"]

_PAULIS = {
    "x": gate_matrix("x"),
    "y": gate_matrix("y"),
    "z": gate_matrix("z"),
}
_PAULI_NAMES = ("x", "y", "z")

_PROJECTORS = (
    np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
    np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex),
)

#: Fraction of pure dephasing attributed to quasi-static (refocusable)
#: low-frequency noise; the remainder is Markovian. Superconducting qubits
#: are dominated by 1/f flux noise, hence the high fraction.
QUASI_STATIC_FRACTION = 0.75


@dataclass
class NoisyResult:
    """Outcome of a noisy execution."""

    counts: dict[str, int]
    probabilities: np.ndarray
    shots: int
    num_qubits: int
    num_trajectories: int


@dataclass
class _TrajectoryDraws:
    """All randomness of one batched run, in schedule order.

    ``windows`` holds one uniform ``(T,)`` draw per decoherence window;
    the ``gate_*`` lists hold the fire/victim/pauli triples of every
    noisy unitary gate.  :meth:`select` slices out one trajectory so a
    per-trajectory reference run can replay the identical randomness.
    """

    num_trajectories: int
    detunings: np.ndarray  # (T, n) scaled detunings, rad/ns
    windows: list[np.ndarray]
    gate_fire: list[np.ndarray]
    gate_victim: list[np.ndarray]
    gate_pauli: list[np.ndarray]

    def select(self, t: int) -> "_TrajectoryDraws":
        return _TrajectoryDraws(
            num_trajectories=1,
            detunings=self.detunings[t : t + 1],
            windows=[w[t : t + 1] for w in self.windows],
            gate_fire=[f[t : t + 1] for f in self.gate_fire],
            gate_victim=[v[t : t + 1] for v in self.gate_victim],
            gate_pauli=[p[t : t + 1] for p in self.gate_pauli],
        )


class NoisySimulator:
    """Trajectory-averaged noisy simulator for a given :class:`NoiseModel`."""

    def __init__(
        self,
        noise_model: NoiseModel,
        *,
        num_trajectories: int = 24,
        seed: int | None = None,
    ) -> None:
        if num_trajectories < 1:
            raise ValueError("num_trajectories must be >= 1")
        self.noise_model = noise_model
        self.num_trajectories = num_trajectories
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def run(
        self,
        circuit: Circuit,
        shots: int = 1024,
        rng: np.random.Generator | None = None,
    ) -> NoisyResult:
        """Execute ``circuit`` with noise; returns counts over all qubits.

        The circuit's qubit indices must be physical qubits of the noise
        model (i.e. the circuit is already transpiled, or the model is as
        wide as the logical circuit).
        """
        if circuit.num_qubits > self.noise_model.num_qubits:
            raise ValueError(
                f"circuit needs {circuit.num_qubits} qubits, backend has "
                f"{self.noise_model.num_qubits}"
            )
        rng = rng or self._rng
        probs = self.noisy_probabilities(circuit, rng=rng)
        counts = sample_counts(probs, shots, rng, circuit.num_qubits)
        return NoisyResult(
            counts=counts,
            probabilities=probs,
            shots=shots,
            num_qubits=circuit.num_qubits,
            num_trajectories=self.num_trajectories,
        )

    def noisy_probabilities(
        self, circuit: Circuit, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """Trajectory-averaged outcome distribution including readout noise."""
        rng = rng or self._rng
        n = circuit.num_qubits
        plan = self._noise_plan(circuit)
        draws = self._draw_randomness(circuit, plan, rng)
        states = self._evolve_trajectories(circuit, plan, draws)
        acc = np.einsum("ti,ti->i", states.conj(), states).real
        acc = acc / self.num_trajectories
        return apply_readout_noise_probs(acc, self.noise_model, n)

    # ------------------------------------------------------------------
    def _noise_plan(self, circuit: Circuit) -> list[tuple]:
        """The deterministic event sequence of one run, in schedule order.

        Events: ``("window", qubit, dt_ns)`` for a decoherence window,
        ``("unitary", op_index)`` for an ideal gate application,
        ``("gate_error", op_index, error, qubits)`` for a noisy gate's
        stochastic Pauli kick, and ``("project", op_index)``.  Both the
        draw pass and the evolution pass iterate this plan, which is what
        keeps their randomness consumption in lockstep.
        """
        nm = self.noise_model
        last_end = [0.0] * circuit.num_qubits
        plan: list[tuple] = []
        for op in schedule_circuit(circuit, nm).ops:
            if op.name == "barrier":
                continue
            g = circuit.ops[op.index]
            # Idle decoherence on each involved qubit since its last activity.
            for q in g.qubits:
                gap = op.start_ns - last_end[q]
                if gap > 0.0:
                    plan.append(("window", q, gap))
            if g.is_unitary:
                plan.append(("unitary", op.index))
                gn = nm.gate_noise(g.name, g.qubits)
                if gn.error > 0.0:
                    plan.append(("gate_error", op.index, gn.error, g.qubits))
            elif g.name == "project":
                plan.append(("project", op.index))
            # Decoherence over the op duration itself (gates, delays, readout).
            if op.duration_ns > 0.0:
                for q in g.qubits:
                    plan.append(("window", q, op.duration_ns))
            for q in g.qubits:
                last_end[q] = op.end_ns
        return plan

    def _detuning_sigmas(self, num_qubits: int) -> np.ndarray:
        """Per-qubit quasi-static detuning widths (rad/ns)."""
        nm = self.noise_model
        sigmas = np.empty(num_qubits)
        for q in range(num_qubits):
            qn = nm.qubits[q]
            inv_tphi_us = max(1e-9, 1.0 / qn.t2_us - 0.5 / qn.t1_us)
            tphi_ns = 1000.0 / inv_tphi_us
            # Gaussian quasi-static: coherence e^{-sigma^2 t^2 / 2}; match
            # e^{-t/Tphi} at t = Tphi => sigma = sqrt(2)/Tphi.
            sigmas[q] = math.sqrt(2.0) / tphi_ns * QUASI_STATIC_FRACTION
        return sigmas

    def _draw_randomness(
        self, circuit: Circuit, plan: list[tuple], rng: np.random.Generator
    ) -> _TrajectoryDraws:
        """Draw the run's randomness as fixed-shape length-T batches.

        The ``(T, n)`` detuning normal consumes the generator's stream
        bit-identically to T sequential per-trajectory draws (locked in
        ``tests/test_simulation.py``); every plan decision point then
        takes one length-T draw (victim/pauli integers unconditionally),
        so the stream shape depends only on the circuit.
        """
        t = self.num_trajectories
        sigmas = self._detuning_sigmas(circuit.num_qubits)
        detunings = rng.normal(0.0, 1.0, (t, circuit.num_qubits)) * sigmas
        windows: list[np.ndarray] = []
        fire: list[np.ndarray] = []
        victim: list[np.ndarray] = []
        pauli: list[np.ndarray] = []
        for ev in plan:
            if ev[0] == "window":
                windows.append(rng.random(t))
            elif ev[0] == "gate_error":
                fire.append(rng.random(t))
                victim.append(rng.integers(len(ev[3]), size=t))
                pauli.append(rng.integers(3, size=t))
        return _TrajectoryDraws(
            num_trajectories=t,
            detunings=detunings,
            windows=windows,
            gate_fire=fire,
            gate_victim=victim,
            gate_pauli=pauli,
        )

    def _evolve_trajectories(
        self, circuit: Circuit, plan: list[tuple], draws: _TrajectoryDraws
    ) -> np.ndarray:
        """Evolve ``draws.num_trajectories`` stacked states through the plan.

        Pure in ``draws``: slicing the draws (:meth:`_TrajectoryDraws.select`)
        and evolving each trajectory separately yields bit-equivalent rows,
        which is the batched-vs-loop equivalence the tests assert.
        """
        n = circuit.num_qubits
        ops = circuit.ops
        t = draws.num_trajectories
        states = np.zeros((t, 2**n), dtype=complex)
        states[:, 0] = 1.0
        wi = gi = 0
        for ev in plan:
            if ev[0] == "window":
                states = self._decohere_window_batch(
                    states, ev[1], ev[2], draws, wi, n
                )
                wi += 1
            elif ev[0] == "unitary":
                g = ops[ev[1]]
                states = apply_matrix_batched(states, g.matrix(), g.qubits, n)
            elif ev[0] == "gate_error":
                _, _, error, qubits = ev
                fired = draws.gate_fire[gi] < error
                vic = draws.gate_victim[gi]
                pau = draws.gate_pauli[gi]
                gi += 1
                if fired.any():
                    for v in range(len(qubits)):
                        for p, name in enumerate(_PAULI_NAMES):
                            m = fired & (vic == v) & (pau == p)
                            if m.any():
                                states[m] = apply_matrix_batched(
                                    states[m], _PAULIS[name], (qubits[v],), n
                                )
            else:  # project
                g = ops[ev[1]]
                proj = _PROJECTORS[int(g.params[0])]
                states = apply_matrix_batched(states, proj, g.qubits, n)
        return states

    def _decohere_window_batch(
        self,
        states: np.ndarray,
        q: int,
        dt_ns: float,
        draws: _TrajectoryDraws,
        window_index: int,
        num_qubits: int,
    ) -> np.ndarray:
        """One decoherence window on qubit ``q`` over the whole batch.

        The coherent quasi-static dephasing is a per-trajectory RZ — a
        diagonal broadcast multiply, one fused pass for all trajectories.
        The stochastic part draws one uniform per trajectory and applies
        the selected Pauli to the masked sub-batch.
        """
        # Coherent quasi-static dephasing (refocusable by DD pulses):
        # rz(phi) = diag(e^{-i phi/2}, e^{+i phi/2}) per trajectory.
        phi = draws.detunings[:, q] * dt_ns
        bits = (np.arange(states.shape[1]) >> q) & 1
        states = states * np.exp(1j * np.outer(phi, bits - 0.5))
        p_ad, p_pd = self.noise_model.decoherence_probs(q, dt_ns)
        markov_frac = 1.0 - QUASI_STATIC_FRACTION
        # Stochastic amplitude damping, Pauli-twirled.
        p_x = p_ad / 4.0
        p_y = p_ad / 4.0
        p_z = p_ad / 4.0 + markov_frac * p_pd / 2.0
        r = draws.windows[window_index]
        masks = (
            r < p_x,
            (r >= p_x) & (r < p_x + p_y),
            (r >= p_x + p_y) & (r < p_x + p_y + p_z),
        )
        for m, name in zip(masks, _PAULI_NAMES):
            if m.any():
                states[m] = apply_matrix_batched(
                    states[m], _PAULIS[name], (q,), num_qubits
                )
        return states
