"""Analytic fidelity model: Estimated Success Probability (ESP).

For circuits too wide to simulate, fidelity is estimated analytically as the
product of per-gate and per-readout success probabilities with a decoherence
factor over the circuit's critical path
(:func:`~repro.simulation.schedule.schedule_circuit`) — the "numerical
approach" used by prior work that the paper's regression estimator is
compared against in Fig. 7(b).

``esp`` returns the raw success probability; ``esp_to_hellinger`` converts it
into a Hellinger-fidelity-scale estimate assuming errors scatter outcomes
roughly uniformly (failure mass overlaps with the ideal distribution by the
uniform-overlap amount).
"""

from __future__ import annotations

import math

from ..circuits.circuit import Circuit
from .noise import NoiseModel
from .schedule import schedule_circuit

__all__ = [
    "esp",
    "esp_components",
    "esp_to_hellinger",
    "circuit_duration_ns",
]

#: Effective support of a typical benchmark circuit's ideal distribution,
#: as a power of the Hilbert-space dimension (see :func:`esp_to_hellinger`).
_SUPPORT_EXPONENT = 0.5


def circuit_duration_ns(circuit: Circuit, noise_model: NoiseModel) -> float:
    """Critical-path duration of ``circuit`` under the model's gate times."""
    return schedule_circuit(circuit, noise_model).duration_ns


def esp_components(circuit: Circuit, noise_model: NoiseModel) -> dict[str, float]:
    """Log-survival contributions split by error source.

    Returns ``{"gate": ..., "readout": ..., "decoherence": ...}`` with
    ``esp = exp(sum(values))``. The split is what lets the execution model
    apply error-mitigation techniques mechanistically: REM attacks the
    readout term, DD the (quasi-static share of the) decoherence term, and
    ZNE/twirling the gate term.  A certain failure (an error of 1) is
    ``-inf`` in its own term and blanks the other two.
    """
    log_gate = 0.0
    log_readout = 0.0
    for g in circuit.ops:
        if g.is_unitary:
            err = noise_model.gate_noise(g.name, g.qubits).error
            if err >= 1.0:
                return {"gate": -math.inf, "readout": 0.0, "decoherence": 0.0}
            log_gate += math.log1p(-err)
        elif g.name == "measure":
            err = noise_model.qubits[g.qubits[0]].readout_error
            if err >= 1.0:
                return {"gate": 0.0, "readout": -math.inf, "decoherence": 0.0}
            log_readout += math.log1p(-err)
    duration_us = circuit_duration_ns(circuit, noise_model) / 1000.0
    log_decoh = 0.0
    for q in circuit.used_qubits():
        qn = noise_model.qubits[q]
        inv_tphi = max(0.0, 1.0 / qn.t2_us - 0.5 / qn.t1_us)
        log_decoh += -duration_us / qn.t1_us * 0.5
        log_decoh += -duration_us * inv_tphi * 0.5
    return {"gate": log_gate, "readout": log_readout, "decoherence": log_decoh}


def esp(circuit: Circuit, noise_model: NoiseModel) -> float:
    """Estimated success probability: product of gate/readout survivals
    times a critical-path decoherence factor."""
    return math.exp(sum(esp_components(circuit, noise_model).values()))


def esp_to_hellinger(esp_value: float, num_qubits: int) -> float:
    """Convert ESP into a Hellinger-fidelity-scale estimate.

    Model the noisy output as the mixture ``esp * ideal + (1-esp) * uniform``.
    For an ideal distribution uniform over K basis states the Hellinger
    fidelity of that mixture against the ideal is exactly
    ``esp + K (1-esp) / 2**n``. We take ``K = 2**(n / 2)`` as the effective
    support of a typical benchmark circuit, so the correction vanishes for
    wide circuits and is mild for narrow ones.
    """
    esp_value = min(1.0, max(0.0, esp_value))
    n_eff = max(1, num_qubits)
    support_frac = 2.0 ** (-(1.0 - _SUPPORT_EXPONENT) * min(n_eff, 60))
    return min(1.0, esp_value + (1.0 - esp_value) * support_frac)
