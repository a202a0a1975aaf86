"""QPU load-imbalance trace synthesis (Fig. 2c).

The paper's week-long IBM queue monitor shows up to ~100x queue-size
differences across QPUs. The mechanism it identifies: users greedily pick
the highest-fidelity device. We reproduce the trace by simulating exactly
that behaviour — per-day arrivals routed by a softmax over device fidelity
rank — which yields the same orders-of-magnitude spread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..backends.qpu import QPU

__all__ = ["QueueTrace", "simulate_queue_imbalance"]

#: Arrivals across the fleet per day, and jobs each QPU serves per day.
_JOBS_PER_DAY = 20_000
_SERVICE_PER_DAY = 4_000
#: Sharpness of the users' softmax over device quality.
_GREED = 8.0


@dataclass
class QueueTrace:
    """Per-QPU pending-job counts over a sequence of days."""

    qpu_names: list[str]
    days: list[str]
    queue_sizes: np.ndarray  # (num_days, num_qpus)

    def max_ratio(self, day: int) -> float:
        row = self.queue_sizes[day]
        nz = row[row > 0]
        if len(nz) == 0:
            return 1.0
        return float(row.max() / max(1.0, nz.min()))


def simulate_queue_imbalance(
    fleet: list[QPU],
    *,
    num_days: int = 7,
    seed: int = 0,
) -> QueueTrace:
    """Greedy fidelity-chasing arrival model.

    Each day: every QPU recalibrates (fidelity ranks shuffle), 20,000
    arrivals are split by a softmax of sharpness 8 over quality rank, and
    each QPU serves up to 4,000 jobs from its queue. Queues of popular
    devices blow up; unpopular devices sit near zero — the Fig. 2(c)
    phenomenon.
    """
    rng = np.random.default_rng(seed)
    n = len(fleet)
    queues = np.zeros(n)
    rows = []
    days = []
    for day in range(num_days):
        for qpu in fleet:
            qpu.recalibrate()
        # User-visible "quality": inverse of calibration quality factor.
        quality = np.array([1.0 / q.calibration.quality_factor for q in fleet])
        pref = np.exp(_GREED * (quality - quality.max()))
        pref /= pref.sum()
        arrivals = rng.multinomial(_JOBS_PER_DAY, pref)
        queues = queues + arrivals
        served = np.minimum(queues, _SERVICE_PER_DAY)
        queues = queues - served
        rows.append(queues.copy())
        days.append(f"day{day + 1}")
    return QueueTrace(
        qpu_names=[q.name for q in fleet],
        days=days,
        queue_sizes=np.array(rows),
    )
