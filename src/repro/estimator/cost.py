"""Dollar-cost model from Table 1 (IBM Cloud pricing).

=============  ===========  ===========
Resource       Price/task   Price/hour
=============  ===========  ===========
Standard VM    < 1 $        1 - 5 $
High-end VM    1 - 10 $     10 - 40 $
QPU            30 - 200 $   3000 - 6000 $
=============  ===========  ===========

Plans are priced as QPU-seconds x QPU rate + classical-seconds x VM rate,
plus per-task floors, which is what makes trading quantum time for (cheap)
classical mitigation time economical — the paper's key idea #2.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ResourceRates", "TABLE1_RATES", "plan_cost"]


@dataclass(frozen=True)
class ResourceRates:
    """Hourly and per-task prices for one resource class (USD)."""

    price_per_hour: float
    price_per_task: float


TABLE1_RATES: dict[str, ResourceRates] = {
    "standard_vm": ResourceRates(price_per_hour=3.0, price_per_task=0.5),
    "highend_vm": ResourceRates(price_per_hour=25.0, price_per_task=5.0),
    "qpu": ResourceRates(price_per_hour=4500.0, price_per_task=30.0),
}


def plan_cost(
    quantum_seconds: float,
    classical_seconds: float,
    *,
    classical_tier: str = "standard_vm",
) -> float:
    """Total $ cost of one execution plan at the Table 1 rates.

    Per-task floors apply once per plan; time charges are linear.
    """
    if quantum_seconds < 0 or classical_seconds < 0:
        raise ValueError("durations must be non-negative")
    qpu = TABLE1_RATES["qpu"]
    vm = TABLE1_RATES[classical_tier]
    cost = qpu.price_per_task + quantum_seconds / 3600.0 * qpu.price_per_hour
    if classical_seconds > 0:
        cost += vm.price_per_task + classical_seconds / 3600.0 * vm.price_per_hour
    return cost
