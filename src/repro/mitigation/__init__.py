"""Error-mitigation library: ZNE, REM, DD, Pauli twirling, and
quasi-probability circuit knitting, plus stacked pipelines."""

from .cutting import (
    CZ_QPD_TERMS,
    CutInstruction,
    CutPlan,
    cut_circuit,
    knit,
    sampling_overhead,
)
from .dd import DD, insert_dd
from .extrapolation import (
    ExpFactory,
    LinearFactory,
    PolyFactory,
    RichardsonFactory,
    get_factory,
)
from .folding import fold_gates, fold_global, fold_to_factor
from .rem import REM, mitigate_counts, mitigate_probs
from .stack import STANDARD_STACKS, MitigationStack, StackPlan
from .twirling import CX_TWIRL_SET, pauli_twirl, twirl_ensemble
from .zne import ZNE, zne_expand, zne_infer_probs

__all__ = [
    "fold_gates",
    "fold_global",
    "fold_to_factor",
    "ExpFactory",
    "LinearFactory",
    "PolyFactory",
    "RichardsonFactory",
    "get_factory",
    "ZNE",
    "zne_expand",
    "zne_infer_probs",
    "REM",
    "mitigate_counts",
    "mitigate_probs",
    "DD",
    "insert_dd",
    "CX_TWIRL_SET",
    "pauli_twirl",
    "twirl_ensemble",
    "CZ_QPD_TERMS",
    "CutInstruction",
    "CutPlan",
    "cut_circuit",
    "knit",
    "sampling_overhead",
    "STANDARD_STACKS",
    "MitigationStack",
    "StackPlan",
]
