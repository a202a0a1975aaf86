"""Definitional forms of the kernels every estimate and dispatch crosses.

``src/`` builds a monomial from its parent and keeps a dispatch's
noise-free outcome per (program, mitigation, epoch); each of those must
equal, **bit for bit** (``==`` / ``array_equal``, never ``allclose``), the
plain form kept here:

* :func:`polynomial_transform_reference` — every monomial its own
  left-to-right product of input columns
  (``repro.ml.features.PolynomialFeatures.transform``).
* :func:`polynomial_transform_per_block` — one ``take`` / ``multiply``
  per degree block over all rows (``transform`` as it was before it
  filled its rows in slices).
* :func:`predict_row_reference` — each row's ``X w`` as one
  ``math.fsum``: the product of ``repro.ml.PolynomialRidge.predict``
  adds in its own order, so it is held to this within rounding
  (``allclose``), and to itself over any row slice bit for bit.
* :func:`execute_reference` — ``ExecutionModel.execute`` as it ran until
  PR 23: everything re-derived per call, four scalar ``rng.normal`` draws
  in order; :func:`expected_fidelity_reference` is its fidelity before
  the draws.
* :func:`components_reference` — the four log-error components of a
  whole batch on one device in a single NumPy array pass, nothing kept
  between calls (``ExecutionModel.log_error_components``, one job at a
  time).

Nothing here imports ``repro.ml`` or ``repro.cloud.execution``;
:func:`execute_reference` reaches the model under test only through the
public methods whose results this PR does not change
(``log_error_components``, ``mitigated_components``).
"""

import math
from itertools import combinations_with_replacement

import numpy as np

from repro.cloud.proxy import TranspileProxy
from repro.simulation.esp import esp_to_hellinger

__all__ = [
    "components_reference",
    "execute_reference",
    "expected_fidelity_reference",
    "polynomial_transform_per_block",
    "polynomial_transform_reference",
    "predict_row_reference",
]

# repro.cloud.execution's per-job overheads, copied: the oracle must not
# move when the module it checks does.
_QPU_SETUP_SECONDS = 10.0
_SHOT_OVERHEAD_US = 400.0
_CLASSICAL_BASE_SECONDS = 1.5
# ...and its log-normal noise scales.
_FIDELITY_NOISE_SIGMA = 0.04
_RUNTIME_NOISE_SIGMA = 0.02


def polynomial_transform_reference(X, degree):
    """sklearn-ordered monomials of ``X``'s columns up to ``degree``."""
    X = np.asarray(X, dtype=float)
    rows, n_features = X.shape
    columns = []
    for d in range(1, degree + 1):
        for combo in combinations_with_replacement(range(n_features), d):
            column = X[:, combo[0]].copy()
            for k in combo[1:]:
                column = column * X[:, k]
            columns.append(column)
    return np.stack(columns, axis=1) if columns else np.empty((rows, 0))


def polynomial_transform_per_block(X, degree):
    """sklearn-ordered monomials of ``X``'s columns up to ``degree``, each
    degree >= 2 filled by one ``np.multiply(out.take(parent, 1),
    X.take(last, 1))``: a monomial is its parent (the combo minus its last
    factor, one degree down) times that last factor's column."""
    X = np.asarray(X, dtype=float)
    rows, n_features = X.shape
    blocks, column, width = [], {}, 0
    for d in range(1, degree + 1):
        combos = list(combinations_with_replacement(range(n_features), d))
        if d > 1:
            blocks.append((width, [column[c[:-1]] for c in combos], [c[-1] for c in combos]))
        column = {c: width + j for j, c in enumerate(combos)}
        width += len(combos)
    out = np.empty((rows, width))
    out[:, :n_features] = X
    for start, parent, last in blocks:
        np.multiply(
            out.take(parent, 1), X.take(last, 1), out=out[:, start : start + len(last)]
        )
    return out


def predict_row_reference(X, coef, intercept):
    """``X w + b``, each row one ``math.fsum`` of its products: the
    correctly rounded sum, whatever order a kernel adds in."""
    X = np.asarray(X, dtype=float)
    return np.array([math.fsum(row * coef) for row in X]) + intercept


def expected_fidelity_reference(model, job, calibration, qpu_model):
    """The noise-free fidelity of ``job``: its mitigated ESP, as a
    Hellinger fidelity."""
    raw = model.log_error_components(job.metrics, calibration, qpu_model)
    comp, _, _ = model.mitigated_components(raw, job.mitigation)
    esp = math.exp(comp["gate"] + comp["readout"] + comp["decoherence"])
    return esp_to_hellinger(esp, job.num_qubits)


def execute_reference(model, job, calibration, qpu_model, rng):
    """The four fields of one noisy execution of ``job``, as a tuple
    ``(fidelity, quantum_seconds, classical_pre_seconds,
    classical_post_seconds)``."""
    raw = model.log_error_components(job.metrics, calibration, qpu_model)
    _, shot_mult, classical_mult = model.mitigated_components(raw, job.mitigation)
    fid = expected_fidelity_reference(model, job, calibration, qpu_model)
    fid *= float(np.exp(rng.normal(0.0, _FIDELITY_NOISE_SIGMA)))
    fid = float(min(1.0, max(0.0, fid)))

    shots = job.shots * shot_mult
    speed = 1.0
    if calibration.noise_model.gates_2q:
        speed = calibration.aggregates().duration_2q_ns / qpu_model.duration_2q_ns
    per_shot_s = (raw["duration_ns"] / 1e9) + _SHOT_OVERHEAD_US / 1e6 * speed
    quantum_s = _QPU_SETUP_SECONDS * speed + shots * per_shot_s
    quantum_s *= float(np.exp(rng.normal(0.0, _RUNTIME_NOISE_SIGMA)))

    pre_s = _CLASSICAL_BASE_SECONDS * (1.0 + job.metrics.size / 400.0)
    post_s = _CLASSICAL_BASE_SECONDS * (classical_mult - 1.0) * (
        1.0 + job.num_qubits / 24.0
    )
    pre_s *= float(np.exp(rng.normal(0.0, _RUNTIME_NOISE_SIGMA)))
    post_s *= float(np.exp(rng.normal(0.0, _RUNTIME_NOISE_SIGMA)))
    return fid, float(quantum_s), float(pre_s), float(post_s)


def components_reference(metrics_list, calibration, model):
    """``{"gate", "readout", "decoherence", "duration_ns"}`` of every entry
    of ``metrics_list`` on a device of ``model`` at ``calibration``, one
    row per entry (repeats included), from one array pass over the
    default proxy's physical metrics."""
    proxy = TranspileProxy()
    agg = calibration.aggregates()
    # The proxy is calibrated at the model's nominal gate speed;
    # scale schedules by the calibrated 2q duration.
    nm = calibration.noise_model
    speed = agg.duration_2q_ns / model.duration_2q_ns if nm.gates_2q else 1.0
    phys = np.array([proxy.physical_metrics(m, model) for m in metrics_list])
    phys_2q, phys_1q, duration_ns = phys[:, 0], phys[:, 1], phys[:, 2]
    if nm.gates_2q:
        duration_ns = duration_ns * speed
    num_qubits = np.array([m.num_qubits for m in metrics_list])
    num_meas = np.array([m.num_measurements for m in metrics_list])
    log_gate = phys_2q * math.log1p(-min(agg.error_2q, 0.5)) + phys_1q * math.log1p(
        -min(agg.error_1q, 0.5)
    )
    log_ro = num_meas * math.log1p(-min(agg.readout_error, 0.5))
    inv_tphi = max(0.0, 1.0 / agg.t2_us - 0.5 / agg.t1_us)
    dur_us = duration_ns / 1000.0
    log_decoh = -dur_us * num_qubits * 0.25 * (1.0 / agg.t1_us + inv_tphi)
    return [
        {
            "gate": float(log_gate[j]),
            "readout": float(log_ro[j]),
            "decoherence": float(log_decoh[j]),
            "duration_ns": float(duration_ns[j]),
        }
        for j in range(len(metrics_list))
    ]
