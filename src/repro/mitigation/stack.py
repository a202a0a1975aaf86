"""Stacked mitigation pipelines (§6: "integrates complementary error
mitigation techniques in a stacked manner").

A :class:`MitigationStack` is an ordered recipe of techniques, e.g.
``["dd", "twirling", "zne", "rem"]``. It exposes the three hooks the
resource estimator and executor need:

* :meth:`expand` — circuit -> list of circuit instances to execute
  (ZNE noise scales x twirl ensemble x ... );
* :meth:`post_process` — raw distributions -> one mitigated distribution;
* overhead properties — quantum-shot and classical-runtime multipliers
  that feed the resource-plan cost model.

Each technique runs at one setting: DD as :func:`~.dd.insert_dd`'s XpXm
pairs, ZNE at :data:`~.zne.DEFAULT_NOISE_FACTORS` with a linear fit,
:data:`~.twirling.TWIRL_INSTANCES` twirls per noise scale (seeded by the
scale's index) and per-qubit (tensored) REM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..circuits.circuit import Circuit
from ..simulation.noise import NoiseModel
from .dd import insert_dd
from .rem import mitigate_probs
from .twirling import TWIRL_INSTANCES, twirl_ensemble
from .zne import DEFAULT_NOISE_FACTORS, zne_expand, zne_infer_probs

__all__ = ["MitigationStack", "StackPlan", "STANDARD_STACKS"]

#: Ready-made recipes, ordered from cheap to expensive. These are the
#: "resource plan" knobs the estimator sweeps (§6, Fig. 7a).
STANDARD_STACKS: dict[str, list[str]] = {
    "none": [],
    "rem": ["rem"],
    "dd": ["dd"],
    "dd+rem": ["dd", "rem"],
    "twirl+rem": ["twirling", "rem"],
    "zne": ["zne"],
    "zne+rem": ["zne", "rem"],
    "dd+zne+rem": ["dd", "zne", "rem"],
    "dd+twirl+zne+rem": ["dd", "twirling", "zne", "rem"],
}

_TECHNIQUES = frozenset(t for stack in STANDARD_STACKS.values() for t in stack)


@dataclass
class StackPlan:
    """Expansion result: executable instances plus recombination metadata."""

    instances: list[Circuit]
    zne_factors: list[float] | None
    twirl_group: int  # instances per ZNE factor (1 when twirling is off)


@dataclass(frozen=True)
class MitigationStack:
    """An ordered error-mitigation recipe; :meth:`preset` builds the
    standard ones."""

    techniques: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        unknown = set(self.techniques) - _TECHNIQUES
        if unknown:
            raise ValueError(f"unknown mitigation techniques: {sorted(unknown)}")

    @classmethod
    def preset(cls, name: str) -> "MitigationStack":
        if name not in STANDARD_STACKS:
            raise KeyError(f"unknown stack preset {name!r}")
        return cls(tuple(STANDARD_STACKS[name]))

    # ------------------------------------------------------------------
    @property
    def shot_overhead(self) -> float:
        """Multiplier on quantum executions vs the bare circuit."""
        overhead = 1.0
        if "zne" in self.techniques:
            overhead *= len(DEFAULT_NOISE_FACTORS)
        if "twirling" in self.techniques:
            overhead *= TWIRL_INSTANCES
        return overhead

    @property
    def classical_overhead(self) -> float:
        """Relative classical post-processing cost (1 = negligible)."""
        cost = 1.0
        if "rem" in self.techniques:
            cost += 2.0
        if "zne" in self.techniques:
            cost += 1.0
        if "twirling" in self.techniques:
            cost += 0.5 * TWIRL_INSTANCES
        return cost

    # ------------------------------------------------------------------
    def expand(self, circuit: Circuit, noise_model: NoiseModel) -> StackPlan:
        """Generate the executable instances for ``circuit``."""
        base = insert_dd(circuit, noise_model) if "dd" in self.techniques else circuit
        if "zne" in self.techniques:
            scaled = zne_expand(base)
            factors: list[float] | None = list(DEFAULT_NOISE_FACTORS)
        else:
            scaled = [base]
            factors = None
        if "twirling" in self.techniques:
            instances = [
                twirled
                for i, circ in enumerate(scaled)
                for twirled in twirl_ensemble(circ, seed=i)
            ]
            group = TWIRL_INSTANCES
        else:
            instances = scaled
            group = 1
        return StackPlan(instances=instances, zne_factors=factors, twirl_group=group)

    def post_process(
        self,
        plan: StackPlan,
        probs: list[np.ndarray],
        noise_model: NoiseModel,
        num_qubits: int,
    ) -> np.ndarray:
        """Recombine executed distributions into the mitigated result."""
        if len(probs) != len(plan.instances):
            raise ValueError("result count does not match plan instances")
        # 1. Average twirl groups.
        if plan.twirl_group > 1:
            grouped = [
                np.mean(probs[i : i + plan.twirl_group], axis=0)
                for i in range(0, len(probs), plan.twirl_group)
            ]
        else:
            grouped = [np.asarray(p, dtype=float) for p in probs]
        # 2. REM before extrapolation (readout errors are not amplified by
        #    folding, so they must be removed before ZNE inference).
        if "rem" in self.techniques:
            grouped = [mitigate_probs(p, noise_model, num_qubits) for p in grouped]
        # 3. ZNE inference.
        if plan.zne_factors is not None:
            return zne_infer_probs(plan.zne_factors, grouped)
        return grouped[0]
