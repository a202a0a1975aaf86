"""Zero-noise extrapolation (ZNE).

Pipeline (matching Listing 2 of the paper): ``ZNE.apply`` expands one
circuit into several noise-scaled instances; after execution,
``ZNE.inference_probs`` extrapolates the measured distributions back to the
zero-noise limit, per basis state, then projects them back onto the
probability simplex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..circuits.circuit import Circuit
from .extrapolation import get_factory
from .folding import fold_to_factor

__all__ = ["ZNE", "zne_expand", "zne_infer_probs"]

DEFAULT_NOISE_FACTORS = (1.0, 3.0, 5.0)


@dataclass(frozen=True)
class ZNE:
    """Configuration object for a ZNE application."""

    noise_factors: tuple[float, ...] = DEFAULT_NOISE_FACTORS
    factory: str = "linear"

    def apply(self, circuit: Circuit) -> list[Circuit]:
        """Generate the noise-scaled circuit instances (§6's expansion)."""
        return zne_expand(circuit, self.noise_factors)

    def inference_probs(self, probs: list[np.ndarray]) -> np.ndarray:
        return zne_infer_probs(list(self.noise_factors), probs, self.factory)

    @property
    def sampling_overhead(self) -> float:
        """Relative quantum-shot overhead vs the unmitigated run."""
        return float(len(self.noise_factors))

    @property
    def gate_overhead(self) -> float:
        """Mean gate-count multiplier across the scaled instances."""
        return float(np.mean(self.noise_factors))


def zne_expand(
    circuit: Circuit, noise_factors: tuple[float, ...] = DEFAULT_NOISE_FACTORS
) -> list[Circuit]:
    """One folded instance per noise factor (factor 1 = original)."""
    if any(f < 1.0 for f in noise_factors):
        raise ValueError("noise factors must be >= 1")
    out = []
    for factor in noise_factors:
        folded = circuit.copy() if abs(factor - 1.0) < 1e-12 else fold_to_factor(
            circuit, factor
        )
        folded.metadata["zne_scale"] = factor
        out.append(folded)
    return out


def zne_infer_probs(
    noise_factors: list[float],
    probs: list[np.ndarray],
    factory: str = "linear",
) -> np.ndarray:
    """Extrapolate a distribution to zero noise, per basis state.

    The raw extrapolation may leave the simplex; negative entries are
    clipped and the vector renormalized (standard practice).
    """
    if len(noise_factors) != len(probs):
        raise ValueError("need one distribution per noise factor")
    stack = np.stack([np.asarray(p, dtype=float) for p in probs])
    x = np.asarray(noise_factors, dtype=float)
    if factory in ("linear", "LinearFactory"):
        # Vectorized linear extrapolation across all basis states at once.
        xm = x.mean()
        ym = stack.mean(axis=0)
        denom = np.sum((x - xm) ** 2)
        slope = ((x - xm)[:, None] * (stack - ym)).sum(axis=0) / denom
        zero = ym - slope * xm
    else:
        fac = get_factory(factory)
        zero = np.array(
            [fac(list(x), list(stack[:, i])) for i in range(stack.shape[1])]
        )
    zero = np.clip(zero, 0.0, None)
    total = zero.sum()
    if total <= 0:
        return stack[0]
    return zero / total
