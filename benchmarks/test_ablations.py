"""Ablation benches for the design choices called out in DESIGN.md §5:
NSGA-II vs random search, triggers, and template-vs-per-QPU estimation."""

import numpy as np

from repro.backends import default_fleet
from repro.cloud.job import QuantumJob
from repro.moo import NSGA2, Termination, pareto_front_mask
from repro.scheduler import SchedulingTrigger
from repro.scheduler.formulation import SchedulingProblem
from repro.workloads import WorkloadSampler


def _problem(seed=0, n_jobs=40, n_qpus=6):
    rng = np.random.default_rng(seed)
    from repro.scheduler.formulation import SchedulingInput

    data = SchedulingInput(
        fidelity=rng.uniform(0.4, 0.95, (n_jobs, n_qpus)),
        exec_seconds=rng.uniform(5, 40, (n_jobs, n_qpus)),
        waiting_seconds=rng.uniform(0, 600, n_qpus),
        feasible=np.ones((n_jobs, n_qpus), dtype=bool),
    )
    return SchedulingProblem(data, seed=seed)


def _hypervolume(F, ref=(1e5, 1.0)):
    """2-D hypervolume dominated by the front (larger = better)."""
    front = F[pareto_front_mask(F)]
    order = np.argsort(front[:, 0])
    front = front[order]
    hv, prev_x = 0.0, ref[0]
    for x, y in front[::-1]:
        hv += max(0.0, (prev_x - x)) * max(0.0, ref[1] - y)
        prev_x = x
    return hv


def test_ablation_nsga2_vs_random_search(once):
    """NSGA-II must dominate random search at equal evaluation budget."""

    def run():
        problem = _problem(seed=3)
        result = NSGA2(pop_size=40, seed=1).minimize(
            problem, Termination(max_generations=30)
        )
        budget = result.evaluations
        rng = np.random.default_rng(1)
        X = problem.sample(budget, rng)
        F_rand = problem.evaluate(X)
        return _hypervolume(result.F), _hypervolume(F_rand)

    hv_nsga, hv_rand = once(run)
    print(f"\n=== Ablation: NSGA-II vs random search ===")
    print(f"  hypervolume: nsga2={hv_nsga:.3e} random={hv_rand:.3e}")
    assert hv_nsga >= hv_rand


def test_ablation_scheduling_triggers(once):
    """Queue-size triggers bound batch latency; time triggers bound idleness."""

    def run():
        trig = SchedulingTrigger(queue_limit=50, interval_seconds=120)
        fires_queue = sum(
            1 for q in range(1, 200) if trig.should_fire(q, now=0.0)
        )
        trig2 = SchedulingTrigger(queue_limit=10**9, interval_seconds=120)
        trig2.fired(0.0)
        fires_time = sum(
            1 for t in np.arange(0, 600, 60) if trig2.should_fire(1, now=float(t))
        )
        return fires_queue, fires_time

    fq, ft = once(run)
    print(f"\n=== Ablation: triggers === queue-fires={fq} time-fires={ft}")
    assert fq > 0 and ft > 0


def test_ablation_template_vs_per_qpu_estimation(once):
    """Template averaging trades a little accuracy for per-model cost."""
    from repro.experiments.common import trained_estimator
    from repro.backends import build_templates
    from repro.cloud import ExecutionModel

    def run():
        est = trained_estimator(seed=7)
        fleet = default_fleet(seed=7, names=["auckland", "cairo", "algiers"])
        templates = build_templates(fleet)
        em = ExecutionModel(seed=13)
        rng = np.random.default_rng(0)
        sampler = WorkloadSampler(seed=5, max_qubits=27, mean_qubits=8)
        err_per_qpu, err_template = [], []
        template = templates["falcon_r5_27"]
        for s in sampler.sample_many(40):
            job = QuantumJob.from_circuit(s.circuit, shots=s.shots)
            qpu = fleet[int(rng.integers(len(fleet)))]
            real = em.execute(job, qpu.calibration, qpu.model, em.noise(rng))
            # A template calibration is no QPU, so both go through
            # estimate_pairs, which scores a (job, calibration) pair.
            (f_qpu,), _ = est.estimators.estimate_pairs(
                [(job.metrics, job.shots, "none")], [(qpu.calibration, [0])]
            )
            (f_tmpl,), _ = est.estimators.estimate_pairs(
                [(job.metrics, job.shots, "none")], [(template.calibration, [0])]
            )
            err_per_qpu.append(abs(f_qpu - real.fidelity))
            err_template.append(abs(f_tmpl - real.fidelity))
        return float(np.mean(err_per_qpu)), float(np.mean(err_template))

    e_qpu, e_tmpl = once(run)
    print(f"\n=== Ablation: per-QPU vs template estimation ===")
    print(f"  mean |err|: per-qpu={e_qpu:.3f} template={e_tmpl:.3f}")
    # Template estimation is coarser but must stay in the same regime.
    assert e_tmpl < max(0.25, 3.0 * e_qpu)
