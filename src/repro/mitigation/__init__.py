"""Error-mitigation library: ZNE, REM, DD, Pauli twirling, and
quasi-probability circuit knitting, plus the stacked pipelines that run
them."""

from .cutting import (
    CZ_QPD_TERMS,
    CutInstruction,
    CutPlan,
    cut_circuit,
    knit,
)
from .dd import insert_dd
from .folding import fold_gates, fold_global, fold_to_factor
from .rem import mitigate_probs
from .stack import STANDARD_STACKS, MitigationStack, StackPlan
from .twirling import CX_TWIRL_SET, TWIRL_INSTANCES, pauli_twirl, twirl_ensemble
from .zne import DEFAULT_NOISE_FACTORS, zne_expand, zne_infer_probs

__all__ = [
    "fold_gates",
    "fold_global",
    "fold_to_factor",
    "DEFAULT_NOISE_FACTORS",
    "zne_expand",
    "zne_infer_probs",
    "mitigate_probs",
    "insert_dd",
    "CX_TWIRL_SET",
    "TWIRL_INSTANCES",
    "pauli_twirl",
    "twirl_ensemble",
    "CZ_QPD_TERMS",
    "CutInstruction",
    "CutPlan",
    "cut_circuit",
    "knit",
    "STANDARD_STACKS",
    "MitigationStack",
    "StackPlan",
]
