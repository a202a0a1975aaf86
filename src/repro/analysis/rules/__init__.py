"""The built-in detlint rule set.

Importing this package registers every rule with the framework
registry (see :func:`repro.analysis.base.all_rules`).
"""

from __future__ import annotations

from .det001_rng import AmbientRngRule
from .det002_wallclock import WallClockRule
from .det003_purity import WorkerPurityRule
from .det004_ordering import UnorderedIterationRule
from .det005_metrics import MetricsAllowlistRule

__all__ = [
    "AmbientRngRule",
    "WallClockRule",
    "WorkerPurityRule",
    "UnorderedIterationRule",
    "MetricsAllowlistRule",
]
