"""Resource-plan generation (§6, Fig. 4, Fig. 7a).

A resource plan fixes: the mitigation stack, the target QPU *model*
(estimates run against template QPUs), and the classical tier for
post-processing; it carries estimated fidelity, quantum/classical runtimes,
and dollar cost. The estimator sweeps plan candidates, keeps the Pareto
front over (runtime, 1 - fidelity), and returns the client's requested
number of plans spread across the front.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from ..backends.template import TemplateQPU
from ..circuits.metrics import CircuitMetrics
from ..mitigation.stack import STANDARD_STACKS, MitigationStack
from ..moo.sorting import pareto_front_mask
from .cost import plan_cost
from .models import TrainedEstimators

__all__ = ["ResourcePlan", "generate_resource_plans"]

#: The classical tiers every candidate is priced on.
_CLASSICAL_TIERS = ("standard_vm", "highend_vm")


@dataclass(frozen=True)
class ResourcePlan:
    """One point in the fidelity-runtime-cost tradeoff space."""

    mitigation: str
    model_name: str
    classical_tier: str
    est_fidelity: float
    est_quantum_seconds: float
    est_classical_seconds: float
    est_cost_usd: float

    @property
    def est_total_seconds(self) -> float:
        """Total runtime: quantum + classical (the paper's plan metric)."""
        return self.est_quantum_seconds + self.est_classical_seconds


def _classical_seconds(
    metrics: CircuitMetrics, mitigation: str, tier: str
) -> float:
    """Classical pre+post estimate; the high-end tier is ~4x faster."""
    stack = MitigationStack.preset(mitigation)
    base = 1.5 * (1.0 + metrics.size / 400.0)
    post = 1.5 * (stack.classical_overhead - 1.0) * (1.0 + metrics.num_qubits / 24.0)
    total = base + post
    if tier == "highend_vm":
        total /= 4.0
    return total


def generate_resource_plans(
    metrics: CircuitMetrics,
    shots: int,
    templates: dict[str, TemplateQPU],
    estimators: TrainedEstimators,
    *,
    num_plans: int = 3,
    mitigations: list[str] | None = None,
    min_fidelity: float = 0.0,
    models: list[str] | None = None,
) -> list[ResourcePlan]:
    """Sweep (stack x template x tier), Pareto-filter, pick ``num_plans``.

    Returned plans are sorted by estimated fidelity descending; when the
    front holds more than ``num_plans`` points, picks are spread evenly
    across it (so clients always see both extremes).  ``models`` narrows
    the template sweep to a named subset — sharded fleets use it to keep
    a per-shard sweep bounded by the shard's own device models.
    """
    if num_plans < 1:
        raise ValueError("num_plans must be >= 1")
    if models is not None:
        templates = {k: v for k, v in templates.items() if k in models}
    names = mitigations or list(STANDARD_STACKS)
    # One stacked pipeline pass scores every (template, mitigation stack)
    # at once (the sweep is the API server's per-request hot path).
    fitting = {
        name: t for name, t in templates.items() if t.num_qubits >= metrics.num_qubits
    }
    fids, q_secs = estimators.estimate_pairs(
        [(metrics, shots, mit) for mit in names],
        [(t.calibration, range(len(names))) for t in fitting.values()],
    )
    candidates: list[ResourcePlan] = []
    for (model_name, mitigation), fid, q_sec in zip(
        product(fitting, names), fids.tolist(), q_secs.tolist()
    ):
        if fid < min_fidelity:
            continue
        for tier in _CLASSICAL_TIERS:
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
