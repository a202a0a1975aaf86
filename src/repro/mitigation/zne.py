"""Zero-noise extrapolation (ZNE).

Pipeline (matching Listing 2 of the paper): :func:`zne_expand` folds one
circuit into several noise-scaled instances; after execution,
:func:`zne_infer_probs` fits a least-squares line through the measured
distributions, per basis state, reads it at zero noise and projects the
result back onto the probability simplex.
"""

from __future__ import annotations

import numpy as np

from ..circuits.circuit import Circuit
from .folding import fold_to_factor

__all__ = ["DEFAULT_NOISE_FACTORS", "zne_expand", "zne_infer_probs"]

#: The noise scales every ZNE stack runs at.
DEFAULT_NOISE_FACTORS = (1.0, 3.0, 5.0)


def _check_factors(noise_factors) -> None:
    if len(set(noise_factors)) < 2:
        raise ValueError(
            f"ZNE needs at least two distinct noise factors, got {list(noise_factors)}"
        )


def zne_expand(circuit: Circuit) -> list[Circuit]:
    """One folded instance per :data:`DEFAULT_NOISE_FACTORS` entry
    (factor 1 = original)."""
    out = []
    for factor in DEFAULT_NOISE_FACTORS:
        folded = circuit.copy() if abs(factor - 1.0) < 1e-12 else fold_to_factor(
            circuit, factor
        )
        folded.metadata["zne_scale"] = factor
        out.append(folded)
    return out


def zne_infer_probs(noise_factors: list[float], probs: list[np.ndarray]) -> np.ndarray:
    """Extrapolate a distribution to zero noise, per basis state.

    The raw extrapolation may leave the simplex; negative entries are
    clipped and the vector renormalized (standard practice).
    """
    if len(noise_factors) != len(probs):
        raise ValueError("need one distribution per noise factor")
    _check_factors(noise_factors)
    stack = np.stack([np.asarray(p, dtype=float) for p in probs])
    x = np.asarray(noise_factors, dtype=float)
    # One least-squares line across all basis states at once.
    xm = x.mean()
    ym = stack.mean(axis=0)
    denom = np.sum((x - xm) ** 2)
    slope = ((x - xm)[:, None] * (stack - ym)).sum(axis=0) / denom
    zero = np.clip(ym - slope * xm, 0.0, None)
    total = zero.sum()
    if total <= 0:
        return stack[0]
    return zero / total
