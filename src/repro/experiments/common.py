"""Shared experiment infrastructure.

Every experiment function returns a plain dict with a ``paper`` sub-dict
(the published numbers) and a ``measured`` sub-dict (ours), so benches can
print side-by-side rows and EXPERIMENTS.md can be regenerated from code.

Experiments accept a ``scale`` in (0, 1]: 1.0 reproduces the paper's
parameters; smaller values shrink durations/arrival counts proportionally
so the full suite runs in CI time. Trends are stable down to scale ~0.1.
"""

from __future__ import annotations

from ..backends.fleet import default_fleet
from ..backends.qpu import QPU
from ..cloud.execution import ExecutionModel
from ..estimator.estimator import ResourceEstimator

__all__ = [
    "EIGHT_QPU_NAMES",
    "make_fleet",
    "trained_estimator",
    "format_row",
    "print_table",
]

#: The paper's eight simulated devices (Fig. 8c's x-axis).
EIGHT_QPU_NAMES = [
    "auckland",
    "lagos",
    "cairo",
    "hanoi",
    "kolkata",
    "mumbai",
    "guadalupe",
    "nairobi",
]

_estimator_cache: dict[tuple, ResourceEstimator] = {}


def make_fleet(seed: int = 7, names: list[str] | None = None) -> list[QPU]:
    return default_fleet(seed=seed, names=names or EIGHT_QPU_NAMES)


def trained_estimator(
    *,
    seed: int = 7,
    names: tuple[str, ...] | None = None,
    num_records: int = 800,
) -> ResourceEstimator:
    """Train (and cache per-process) the resource estimator for a fleet."""
    key = (seed, names or tuple(EIGHT_QPU_NAMES), num_records)
    if key not in _estimator_cache:
        fleet = make_fleet(seed=seed, names=list(names) if names else None)
        _estimator_cache[key] = ResourceEstimator.train_for_fleet(
            fleet, num_records=num_records, execution_model=ExecutionModel(seed=seed), seed=seed
        )
    return _estimator_cache[key]


def format_row(label: str, paper, measured, unit: str = "") -> str:
    return f"  {label:<42s} paper={paper!s:>12s}  measured={measured!s:>12s} {unit}"


def print_table(title: str, rows: list[tuple]) -> None:
    print(f"\n=== {title} ===")
    for label, paper, measured, *rest in rows:
        unit = rest[0] if rest else ""
        if isinstance(paper, float):
            paper = round(paper, 3)
        if isinstance(measured, float):
            measured = round(measured, 3)
        print(format_row(label, paper, measured, unit))
