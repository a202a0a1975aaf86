"""Figure 7: resource-estimator evaluation (§8.4).

(a) Pareto front of resource plans for a 20-qubit QAOA max-cut circuit;
(b, c) CDFs of fidelity / execution-time estimation error, regression vs
the numerical baseline.
"""

from __future__ import annotations

import numpy as np

from ..circuits.metrics import compute_metrics
from ..cloud.execution import ExecutionModel
from ..cloud.job import QuantumJob
from ..estimator.numerical import NumericalEstimator
from ..mitigation.stack import STANDARD_STACKS
from ..workloads import WorkloadSampler, qaoa_ring_maxcut
from .common import make_fleet, trained_estimator

__all__ = ["fig7a_resource_plans", "fig7bc_estimation_error"]


def fig7a_resource_plans(*, num_qubits: int = 20, shots: int = 4000, seed: int = 7) -> dict:
    """Plan Pareto front for QAOA-20 max-cut.

    Paper: the second-highest-fidelity plan costs 34.6 % less runtime for
    only 3.6 % less fidelity.
    """
    estimator = trained_estimator(seed=7)
    circuit = qaoa_ring_maxcut(num_qubits, seed=seed)
    plans = estimator.generate_plans(
        compute_metrics(circuit), shots, num_plans=8
    )
    result = {
        "paper": {"second_best_runtime_saving_pct": 34.6, "second_best_fid_loss_pct": 3.6},
        "measured": {
            "num_plans": len(plans),
            "plans": [
                {
                    "mitigation": p.mitigation,
                    "tier": p.classical_tier,
                    "fidelity": round(p.est_fidelity, 3),
                    "total_seconds": round(p.est_total_seconds, 2),
                    "cost_usd": round(p.est_cost_usd, 2),
                }
                for p in plans
            ],
        },
    }
    if len(plans) >= 2:
        best, second = plans[0], plans[1]
        result["measured"]["second_best_runtime_saving_pct"] = 100.0 * (
            1.0 - second.est_total_seconds / best.est_total_seconds
        )
        result["measured"]["second_best_fid_loss_pct"] = 100.0 * (
            1.0 - second.est_fidelity / best.est_fidelity
        )
    return result


def fig7bc_estimation_error(
    *,
    num_jobs: int = 250,
    seed: int = 99,
) -> dict:
    """Held-out estimation-error CDFs.

    Paper: ~75 % of fidelity estimates within 0.1; 80 % of execution-time
    estimates within 500 ms; regression beats the numerical method, most
    visibly below 0.1 fidelity error.
    """
    estimator = trained_estimator(seed=7)
    fleet = make_fleet(seed=7)
    em = ExecutionModel(seed=31)
    numerical = NumericalEstimator(proxy=em.proxy)
    # Spawned streams: the estimator's training set draws its jobs from
    # default_rng(7), a root stream no spawned child can equal, so the
    # test jobs are held out at every seed.
    sampler_seed, rng_seed = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(rng_seed)
    sampler = WorkloadSampler(seed=sampler_seed, max_qubits=27, mean_qubits=8, std_qubits=4)
    names = list(STANDARD_STACKS)
    fid_err_reg, fid_err_num, run_err_reg, run_err_num = [], [], [], []
    for sampled in sampler.sample_many(num_jobs):
        mitigation = names[int(rng.integers(len(names)))]
        job = QuantumJob(
            metrics=sampled.metrics, shots=sampled.shots, mitigation=mitigation,
            benchmark=sampled.benchmark,
        )
        candidates = [q for q in fleet if q.num_qubits >= job.num_qubits]
        if not candidates:
            continue
        qpu = candidates[int(rng.integers(len(candidates)))]
        real = em.execute(job, qpu.calibration, qpu.model, rng)
        fid, sec = estimator.estimate_block([job], [qpu])
        f_reg, t_reg = fid.item(), sec.item()
        f_num = numerical.estimate_fidelity(
            job.metrics, job.shots, mitigation, qpu.calibration, qpu.model
        )
        t_num = numerical.estimate_runtime(
            job.metrics, job.shots, mitigation, qpu.calibration, qpu.model
        )
        fid_err_reg.append(abs(f_reg - real.fidelity))
        fid_err_num.append(abs(f_num - real.fidelity))
        run_err_reg.append(abs(t_reg - real.quantum_seconds))
        run_err_num.append(abs(t_num - real.quantum_seconds))
    fid_err_reg = np.array(fid_err_reg)
    fid_err_num = np.array(fid_err_num)
    run_err_reg = np.array(run_err_reg)
    run_err_num = np.array(run_err_num)
    return {
        "paper": {
            "fid_err_lt_0.1_frac": 0.75,
            "runtime_err_lt_500ms_frac": 0.80,
            "regression_beats_numerical": True,
        },
        "measured": {
            "fid_err_lt_0.1_frac_regression": float(np.mean(fid_err_reg < 0.1)),
            "fid_err_lt_0.1_frac_numerical": float(np.mean(fid_err_num < 0.1)),
            "runtime_err_lt_500ms_frac_regression": float(np.mean(run_err_reg < 0.5)),
            "runtime_err_lt_500ms_frac_numerical": float(np.mean(run_err_num < 0.5)),
            "median_fid_err_regression": float(np.median(fid_err_reg)),
            "median_fid_err_numerical": float(np.median(fid_err_num)),
            "regression_beats_numerical": bool(
                np.mean(fid_err_reg < 0.1) >= np.mean(fid_err_num < 0.1)
            ),
            "n": int(len(fid_err_reg)),
        },
        "cdf_data": {
            "fid_err_regression": np.sort(fid_err_reg),
            "fid_err_numerical": np.sort(fid_err_num),
            "run_err_regression": np.sort(run_err_reg),
            "run_err_numerical": np.sort(run_err_num),
        },
    }
