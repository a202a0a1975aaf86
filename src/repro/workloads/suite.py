"""Benchmark suite catalog and workload sampler.

Plays the role of the MQT Benchmark library in the paper's evaluation: a
named catalog of parameterised circuit generators (2-130 qubits) plus a
sampler that draws random applications the way the paper's load generator
does — random algorithm, normally distributed width, random shot counts.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.metrics import CircuitMetrics, MetricsWriter, compute_metrics
from .ghz import ghz, ghz_linear, w_state
from .oracles import bernstein_vazirani, deutsch_jozsa
from .qaoa import qaoa_maxcut
from .qft import qft, qft_entangled
from .qpe import phase_estimation, ripple_adder
from .random_circuits import random_circuit
from .vqe import real_amplitudes, two_local

__all__ = [
    "BENCHMARKS",
    "WIDTH_DETERMINED",
    "generate",
    "benchmark_names",
    "WorkloadSampler",
    "SampledJob",
]


def _qft_measured(n: int, seed: int) -> Circuit:
    return qft(n, measure=True)


def _adder(n: int, seed: int) -> Circuit:
    bits = max(1, (n - 2) // 2)
    return ripple_adder(bits)


def _qpe(n: int, seed: int) -> Circuit:
    return phase_estimation(max(1, n - 1))


#: name -> (generator(num_qubits, seed) -> Circuit, min_qubits, max_qubits).
#: A family not in :data:`WIDTH_DETERMINED` is seeded, and its generator
#: also takes ``sink=`` (see :class:`SampledJob`).
BENCHMARKS: dict[str, tuple[Callable[..., Any], int, int]] = {
    "ghz": (lambda n, s: ghz(n), 2, 130),
    "ghz_linear": (lambda n, s: ghz_linear(n), 2, 130),
    "wstate": (lambda n, s: w_state(n), 2, 130),
    "qft": (_qft_measured, 2, 130),
    "qft_entangled": (lambda n, s: qft_entangled(n), 2, 130),
    "qaoa": (lambda n, s, sink=Circuit: qaoa_maxcut(n, p_layers=1, seed=s, sink=sink), 2, 130),
    "qaoa_deep": (lambda n, s, sink=Circuit: qaoa_maxcut(n, p_layers=3, seed=s, sink=sink), 2, 130),
    "vqe_real_amplitudes": (lambda n, s: real_amplitudes(n, reps=2, seed=s), 2, 130),
    "vqe_two_local": (lambda n, s: two_local(n, reps=1, seed=s), 2, 60),
    "bv": (lambda n, s: bernstein_vazirani(n), 1, 130),
    "dj": (lambda n, s, sink=Circuit: deutsch_jozsa(n, seed=s, sink=sink), 1, 130),
    "qpe": (_qpe, 2, 40),
    "adder": (_adder, 4, 130),
    "random": (lambda n, s, sink=Circuit: random_circuit(
        n, depth=max(2, n // 2), seed=s, sink=sink), 1, 130),
}

# Grover is exponential-size; only offered at small widths.
from .grover import grover  # noqa: E402

BENCHMARKS["grover"] = (lambda n, s: grover(n), 2, 8)

from .dynamics import amplitude_estimation, tfim_trotter  # noqa: E402

BENCHMARKS["tfim"] = (lambda n, s: tfim_trotter(n, steps=2), 2, 130)
BENCHMARKS["amplitude_estimation"] = (
    lambda n, s: amplitude_estimation(n, grover_power=1), 2, 8
)

#: Families whose gate *structure* is a function of the width alone (the
#: seed moves angles at most), so one ``CircuitMetrics`` serves every draw
#: of a ``(benchmark, width)`` pair and :class:`WorkloadSampler` memoizes
#: it.  A family not listed here is built for every draw.  The list is
#: checked, not trusted: ``tests/test_workloads.py`` fails on an entry
#: whose metrics move with the seed and on an unlisted default family
#: whose metrics never do.
WIDTH_DETERMINED: frozenset[str] = frozenset({
    "adder",
    "amplitude_estimation",
    "bv",
    "ghz",
    "ghz_linear",
    "grover",
    "qft",
    "qft_entangled",
    "qpe",
    "tfim",
    "vqe_real_amplitudes",
    "vqe_two_local",
    "wstate",
})


def benchmark_names() -> list[str]:
    return sorted(BENCHMARKS)


def generate(name: str, num_qubits: int, seed: int = 0) -> Circuit:
    """Instantiate benchmark ``name`` at ``num_qubits`` qubits."""
    if name not in BENCHMARKS:
        raise KeyError(f"unknown benchmark {name!r}; see benchmark_names()")
    fn, lo, hi = BENCHMARKS[name]
    if not lo <= num_qubits <= hi:
        raise ValueError(
            f"benchmark {name!r} supports {lo}..{hi} qubits, got {num_qubits}"
        )
    circ = fn(num_qubits, seed)
    circ.metadata.setdefault("benchmark", name)
    return circ


@dataclass
class SampledJob:
    """One synthetic application drawn by the sampler: a recipe.

    ``circuit`` is ``generate(benchmark, width, seed)``, built on first
    access and then kept.  ``metrics`` of a seeded family writes the
    family's ops into a :class:`MetricsWriter` and builds no ``Gate``; a
    :data:`WIDTH_DETERMINED` family's comes from the drawing sampler's
    memo, which builds the circuit once per ``(benchmark, width)``.
    """

    benchmark: str
    width: int
    seed: int
    shots: int
    uses_mitigation: bool
    #: The drawing sampler's ``(benchmark, width) -> CircuitMetrics`` memo.
    family_metrics: dict[tuple[str, int], CircuitMetrics] = field(
        default_factory=dict, repr=False, compare=False
    )
    _circuit: Circuit | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def circuit(self) -> Circuit:
        if self._circuit is None:
            self._circuit = generate(self.benchmark, self.width, self.seed)
        return self._circuit

    @property
    def metrics(self) -> CircuitMetrics:
        if self.benchmark not in WIDTH_DETERMINED:
            build = BENCHMARKS[self.benchmark][0]
            return build(self.width, self.seed, sink=MetricsWriter).metrics()
        key = (self.benchmark, self.width)
        found = self.family_metrics.get(key)
        if found is None:
            found = self.family_metrics[key] = compute_metrics(self.circuit)
        return found


class WorkloadSampler:
    """Draws random applications mirroring the paper's load generator (§8.2).

    Widths follow a (truncated) normal distribution, shots are drawn
    log-uniformly from {1k..20k}, and a configurable fraction of jobs
    request error mitigation (50 % on average in the paper).
    """

    def __init__(
        self,
        *,
        mean_qubits: float = 12.0,
        std_qubits: float = 6.0,
        min_qubits: int = 2,
        max_qubits: int = 130,
        mitigation_fraction: float = 0.5,
        benchmarks: list[str] | None = None,
        shots_choices: tuple[int, ...] | None = None,
        seed: int | np.random.SeedSequence | None = None,
    ) -> None:
        if min_qubits > max_qubits:
            raise ValueError(
                f"min_qubits ({min_qubits}) must be <= "
                f"max_qubits ({max_qubits})"
            )
        # Finite too: NaN or inf only failed at the first ``sample()``.
        if not math.isfinite(mean_qubits):
            raise ValueError(f"mean_qubits must be finite, got {mean_qubits}")
        if not (math.isfinite(std_qubits) and std_qubits >= 0):
            raise ValueError(f"std_qubits must be finite and >= 0, got {std_qubits}")
        if not 0.0 <= mitigation_fraction <= 1.0:
            raise ValueError(
                f"mitigation_fraction must be in [0, 1], got {mitigation_fraction}"
            )
        unknown = [n for n in benchmarks or () if n not in BENCHMARKS]
        if unknown:
            raise ValueError(
                f"unknown benchmarks {unknown}; choose from {benchmark_names()}"
            )
        self.mean_qubits = mean_qubits
        self.std_qubits = std_qubits
        self.min_qubits = min_qubits
        self.max_qubits = max_qubits
        self.mitigation_fraction = mitigation_fraction
        #: When set, shots are drawn from this grid instead of the
        #: log-uniform continuum — real cloud users overwhelmingly request
        #: round shot counts, which is what makes estimate caching pay off.
        if shots_choices is not None and len(shots_choices) == 0:
            raise ValueError("shots_choices must be non-empty when given")
        self.shots_choices = shots_choices
        requested = benchmarks or [
            n
            for n in benchmark_names()
            if n not in ("grover", "amplitude_estimation")
        ]
        # A benchmark whose own width range misses [min_qubits,
        # max_qubits] would silently clamp every draw outside the
        # documented bounds (e.g. grover caps at 8 qubits: min_qubits=10
        # would yield 8-qubit jobs).  Explicitly requested benchmarks
        # fail loudly; the default catalog is filtered.
        def _compatible(name: str) -> bool:
            _, blo, bhi = BENCHMARKS[name]
            return blo <= self.max_qubits and bhi >= self.min_qubits

        incompatible = [n for n in requested if not _compatible(n)]
        if incompatible and benchmarks:
            raise ValueError(
                f"benchmarks {incompatible} cannot produce widths in "
                f"[{self.min_qubits}, {self.max_qubits}]"
            )
        self.benchmarks = [n for n in requested if _compatible(n)]
        if not self.benchmarks:
            raise ValueError(
                f"no benchmark can produce widths in "
                f"[{self.min_qubits}, {self.max_qubits}]"
            )
        self._rng = np.random.default_rng(seed)
        self._counter = 0
        #: ``(benchmark, width) -> CircuitMetrics`` for the width-determined
        #: families, shared with every :class:`SampledJob` this sampler
        #: draws.  Instance state on purpose: each stream pays its own cold
        #: builds and no module-level cache outlives a run.
        self._family_metrics: dict[tuple[str, int], CircuitMetrics] = {}

    def sample(self) -> SampledJob:
        """Draw one application."""
        rng = self._rng
        name = self.benchmarks[int(rng.integers(len(self.benchmarks)))]
        _, lo, hi = BENCHMARKS[name]
        lo = max(lo, self.min_qubits)
        hi = min(hi, self.max_qubits)
        width = int(round(rng.normal(self.mean_qubits, self.std_qubits)))
        width = int(min(hi, max(lo, width)))
        self._counter += 1
        if self.shots_choices is not None:
            shots = int(self.shots_choices[int(rng.integers(len(self.shots_choices)))])
        else:
            shots = int(2 ** rng.uniform(10, 14.3))  # ~1k .. ~20k
        uses_mit = bool(rng.random() < self.mitigation_fraction)
        return SampledJob(
            name, width, self._counter, shots, uses_mit, self._family_metrics
        )

    def sample_many(self, count: int) -> list[SampledJob]:
        return [self.sample() for _ in range(count)]
