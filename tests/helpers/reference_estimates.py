"""The per-QPU estimate loops the stacked fill replaced, kept verbatim.

Until PR 13 every estimate block walked its QPUs (resp. templates) one
by one: build that column's ``np.tile`` + ``np.hstack`` feature matrices
and call both models on it — two predicts per QPU.  ``src/`` now fills a
whole block through ``TrainedEstimators.estimate_pairs`` (one stacked
pass per model); these loops are the reference it must equal **bit for
bit** (``==``, not ``allclose``):

* :func:`reference_cached_block` — the former
  ``CachedEstimator.estimate_block``, driving the estimator's real cache
  (get-column / put-column interleaved, as it was).
* :func:`reference_block` — the former ``ResourceEstimator.estimate_block``.
* :func:`reference_plans` — the former ``generate_resource_plans``.

Two smaller definitions sit beside them: :func:`pairs_reference`, the
``groupby`` form of ``repro.estimator.cache._pairs``, and
:func:`estimate_pairs_reference`, ``RegressionEstimator.estimate_pairs``
as one ``np.concatenate`` of the groups' indices and one ``np.repeat`` of
their calibration rows.

The ``np.tile`` + ``np.hstack`` builders and the per-column predict
helpers the loops called were deleted from ``src/`` with them and live on
here under private names.  Nothing here may call ``estimate_pairs``.
"""

from itertools import groupby
from operator import itemgetter

import numpy as np

from repro.estimator.cache import job_key
from repro.estimator.cost import plan_cost
from repro.estimator.features import (
    calibration_fidelity_features,
    calibration_runtime_features,
    job_fidelity_features,
    job_runtime_features,
)
from repro.estimator import models
from repro.estimator.plans import ResourcePlan, _classical_seconds
from repro.estimator.source import feasibility_matrix
from repro.mitigation.stack import STANDARD_STACKS
from repro.moo.sorting import pareto_front_mask

__all__ = [
    "cache_table",
    "estimate_pairs_reference",
    "pairs_reference",
    "reference_block",
    "reference_cached_block",
    "reference_plans",
]


def _fidelity_matrix(job_rows, calibration):
    job_rows = np.atleast_2d(job_rows)
    cal = calibration_fidelity_features(calibration)
    return np.hstack([job_rows, np.tile(cal, (job_rows.shape[0], 1))])


def _runtime_matrix(job_rows, calibration):
    job_rows = np.atleast_2d(job_rows)
    cal = calibration_runtime_features(calibration)
    return np.hstack([job_rows, np.tile(cal, (job_rows.shape[0], 1))])


def _column_fidelities(trained, job_rows, calibration):
    if len(job_rows) == 0:
        return np.zeros(0)
    return trained.fidelity.predict(_fidelity_matrix(job_rows, calibration))


def _column_runtimes(trained, job_rows, calibration):
    if len(job_rows) == 0:
        return np.zeros(0)
    return trained.runtime.predict(_runtime_matrix(job_rows, calibration))


#: ``target -> (job features, calibration features)`` of each model.
_BUILDERS = {
    "fidelity": (job_fidelity_features, calibration_fidelity_features),
    "runtime": (job_runtime_features, calibration_runtime_features),
}


def pairs_reference(jobs, qpus, cells):
    """``_pairs``' arguments for column-major ``(i, k, ...)`` cells: one
    ``groupby`` group per run of equal ``k``, and a job's slot given by a
    ``setdefault`` in the order the cells first name it."""
    slot: dict[int, int] = {}
    groups = [
        (qpus[k].calibration, [slot.setdefault(cell[0], len(slot)) for cell in column])
        for k, column in groupby(cells, key=itemgetter(1))
    ]
    return [(j.metrics, j.shots, j.mitigation) for j in (jobs[i] for i in slot)], groups


def estimate_pairs_reference(model, jobs, groups):
    """``model.estimate_pairs(jobs, groups)`` as one concatenation of the
    groups' job indices, one ``np.repeat`` of their calibration rows and
    one ``np.concatenate`` of the two per slice of ``_CHUNK_ROWS`` rows."""
    if not groups:
        return np.zeros(0)
    job_features, calibration_features = _BUILDERS[model.target]
    job_idx = np.concatenate([idx for _, idx in groups])
    rows = np.array([job_features(*job) for job in jobs])
    cals = np.repeat(
        [calibration_features(c) for c, _ in groups], [len(idx) for _, idx in groups], 0
    )
    out = np.empty(len(job_idx))
    for a in range(0, len(out), models._CHUNK_ROWS):
        b = a + models._CHUNK_ROWS
        out[a:b] = model.predict(np.concatenate([rows[job_idx[a:b]], cals[a:b]], 1))
    return out


def cache_table(cached) -> list:
    """The estimator's memo table as ``(key, value)`` pairs in insertion
    order, oldest first (the eviction order), so two tables compare
    equal only when contents and order both agree."""
    return list(cached.cache._entries.items())


def reference_cached_block(cached, jobs, qpus, feasible=None):
    """``cached.estimate_block(jobs, qpus, feasible)`` as it ran before
    the stacked fill: one lookup pass, then one pair of predicts and one
    run of puts, per QPU column."""
    trained = cached.base.estimators
    n, m = len(jobs), len(qpus)
    fid = np.zeros((n, m))
    sec = np.zeros((n, m))
    if feasible is None:
        feasible = feasibility_matrix(jobs, qpus)
    keys = [
        (*job_key(j), q.calibration.epoch)
        for j in jobs
        for q in qpus
    ]
    for k, qpu in enumerate(qpus):
        missing: list[int] = []
        for i in range(n):
            if not feasible[i, k]:
                continue
            hit = cached.cache.get(keys[i * m + k])
            if hit is None:
                missing.append(i)
            else:
                fid[i, k], sec[i, k] = hit
        if not missing:
            continue
        fid_rows = np.array(
            [
                job_fidelity_features(jobs[i].metrics, jobs[i].shots, jobs[i].mitigation)
                for i in missing
            ]
        )
        run_rows = np.array(
            [
                job_runtime_features(jobs[i].metrics, jobs[i].shots, jobs[i].mitigation)
                for i in missing
            ]
        )
        fids = _column_fidelities(trained, fid_rows, qpu.calibration)
        secs = _column_runtimes(trained, run_rows, qpu.calibration)
        for j, i in enumerate(missing):
            fid[i, k] = fids[j]
            sec[i, k] = secs[j]
            cached.cache.put(keys[i * m + k], (float(fids[j]), float(secs[j])))
    return fid, sec


def reference_block(estimator, jobs, qpus, feasible=None):
    """The former uncached ``ResourceEstimator.estimate_block``."""
    n, m = len(jobs), len(qpus)
    fid = np.zeros((n, m))
    sec = np.zeros((n, m))
    if feasible is None:
        feasible = feasibility_matrix(jobs, qpus)
    fid_rows = np.array(
        [job_fidelity_features(j.metrics, j.shots, j.mitigation) for j in jobs]
    )
    run_rows = np.array(
        [job_runtime_features(j.metrics, j.shots, j.mitigation) for j in jobs]
    )
    for k, qpu in enumerate(qpus):
        idx = np.flatnonzero(feasible[:, k])
        if idx.size == 0:
            continue
        fid[idx, k] = _column_fidelities(
            estimator.estimators, fid_rows[idx], qpu.calibration
        )
        sec[idx, k] = _column_runtimes(
            estimator.estimators, run_rows[idx], qpu.calibration
        )
    return fid, sec


def reference_plans(
    metrics,
    shots,
    templates,
    estimators,
    *,
    num_plans=3,
    mitigations=None,
    min_fidelity=0.0,
    models=None,
):
    """The former ``generate_resource_plans``: one pair of predicts per
    template."""
    if models is not None:
        templates = {k: v for k, v in templates.items() if k in models}
    names = mitigations or list(STANDARD_STACKS)
    fid_rows = np.array(
        [job_fidelity_features(metrics, shots, mit) for mit in names]
    )
    run_rows = np.array(
        [job_runtime_features(metrics, shots, mit) for mit in names]
    )
    candidates = []
    for model_name, template in templates.items():
        if template.num_qubits < metrics.num_qubits:
            continue
        fids = _column_fidelities(estimators, fid_rows, template.calibration)
        q_secs = _column_runtimes(estimators, run_rows, template.calibration)
        for mitigation, fid, q_sec in zip(names, fids, q_secs):
            fid = float(fid)
            q_sec = float(q_sec)
            if fid < min_fidelity:
                continue
            for tier in ("standard_vm", "highend_vm"):
                c_sec = _classical_seconds(metrics, mitigation, tier)
                cost = plan_cost(q_sec, c_sec, classical_tier=tier)
                candidates.append(
                    ResourcePlan(
                        mitigation=mitigation,
                        model_name=model_name,
                        classical_tier=tier,
                        est_fidelity=fid,
                        est_quantum_seconds=q_sec,
                        est_classical_seconds=c_sec,
                        est_cost_usd=cost,
                    )
                )
    if not candidates:
        return []
    objectives = np.array(
        [[p.est_total_seconds, 1.0 - p.est_fidelity] for p in candidates]
    )
    mask = pareto_front_mask(objectives)
    front = [p for p, m in zip(candidates, mask) if m]
    front.sort(key=lambda p: -p.est_fidelity)
    if len(front) <= num_plans:
        return front
    idx = np.linspace(0, len(front) - 1, num_plans).round().astype(int)
    return [front[i] for i in idx]
