"""Synthetic cloud load generation (§8.2).

The paper monitored IBM's queues for ten days in November 2023 and found
arrival rates between 1100 and 2050 jobs/hour, averaging 1500 j/h, with a
diurnal pattern. The load generator reproduces that: a sinusoidal diurnal
rate profile bounded to the observed band, Poisson arrivals within it, and
hybrid applications drawn from the workload sampler (random algorithms,
normal widths, random shots, ~50 % requesting error mitigation).

Arrivals can be **streamed**: :meth:`LoadGenerator.iter_arrivals` yields
applications lazily in time order, so the simulator pulls the next arrival
on demand and a 100k+ job run never materializes the full arrival list.
:meth:`LoadGenerator.generate` is the eager view of the same stream (same
seeds, bit-identical applications).

Two arrival processes are available.  ``"poisson"`` (the default) is the
paper's model: exponential inter-arrivals at the (possibly diurnal)
nominal rate.  ``"mmpp"`` is a Markov-modulated Poisson process for
bursty / flash-crowd studies: a two-state continuous-time Markov chain
alternates between a *calm* state at the nominal rate and a *burst*
state at ``burst_rate_multiplier`` times it, with exponentially
distributed state holding times (``mean_calm_seconds`` /
``mean_burst_seconds``).  The mean rate stays close to nominal while
arrivals clump — the worst case for shard balancers and the scenario the
parallel scheduling engine is benchmarked under.  Both processes are
fully seeded and the default path draws exactly the random stream it
always did, so existing seeded scenarios are bit-identical.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ..workloads.suite import SampledJob, WorkloadSampler
from .job import HybridApplication, QuantumJob
from .tenancy import TenantShare, require_at_least

__all__ = ["LoadGenerator", "diurnal_rate", "IBM_MEAN_RATE", "IBM_RATE_BAND"]

IBM_MEAN_RATE = 1500.0  # jobs/hour (paper's measured average)
IBM_RATE_BAND = (1100.0, 2050.0)  # jobs/hour (paper's measured range)

#: Mitigation presets jobs draw from (weighted toward the cheap stacks).
_MITIGATED_PRESETS = ["rem", "dd", "dd+rem", "zne", "zne+rem", "dd+zne+rem"]


def diurnal_rate(hour_of_day: float, mean_rate: float = IBM_MEAN_RATE) -> float:
    """Sinusoidal day profile peaking mid-day, clipped to the rate band.

    :data:`IBM_RATE_BAND` is expressed on the IBM scale; both the
    sinusoidal amplitude and the clip band rescale with
    ``mean_rate / IBM_MEAN_RATE``, so a scaled-up load profile keeps the
    measured *relative* diurnal swing instead of a flattened absolute one.
    """
    lo, hi = IBM_RATE_BAND
    scale = mean_rate / IBM_MEAN_RATE
    amplitude = (hi - lo) / 2.0 * scale
    rate = mean_rate + amplitude * np.sin((hour_of_day - 8.0) / 24.0 * 2 * np.pi)
    # ``np.clip``'s bits for one scalar, without its array dispatch.
    return float(min(max(rate, lo * scale), hi * scale))


@dataclass
class LoadGenerator:
    """Draws timestamped hybrid applications."""

    mean_rate_per_hour: float = IBM_MEAN_RATE
    mitigation_fraction: float = 0.5
    mean_qubits: float = 6.0
    std_qubits: float = 3.0
    #: Width clamp for sampled jobs.  Raising ``min_qubits`` produces the
    #: skewed-wide streams only a subset of the fleet can serve — the
    #: stress regime for qubit-fit routing and shard rebalancing.
    min_qubits: int = 2
    max_qubits: int = 27
    diurnal: bool = True
    #: Optional discrete shot grid (round numbers, as real users request);
    #: None keeps the paper's log-uniform continuum.
    shots_grid: tuple[int, ...] | None = None
    #: Optional benchmark-name subset passed through to the sampler.
    benchmarks: tuple[str, ...] | None = None
    #: When set, pre-sample this many distinct programs and draw every
    #: arrival from the pool (users resubmitting the same circuits, the
    #: regime the estimate cache exploits); circuit construction cost then
    #: scales with the pool, not the stream length.  None samples a fresh
    #: program per arrival (the paper's continuum).
    circuit_pool_size: int | None = None
    #: ``"poisson"`` (the paper's model) or ``"mmpp"`` (two-state
    #: Markov-modulated Poisson: calm at the nominal rate, bursts at
    #: ``burst_rate_multiplier`` times it).
    arrival_process: str = "poisson"
    burst_rate_multiplier: float = 6.0
    mean_burst_seconds: float = 120.0
    mean_calm_seconds: float = 600.0
    #: Optional multi-tenant mix (see :mod:`repro.cloud.tenancy`): each
    #: arrival is stamped with a tenant drawn by share from this tuple of
    #: :class:`TenantShare` entries.  Tenant draws come from a dedicated
    #: RNG substream, so ``tenants=None`` (the default) draws exactly the
    #: random stream it always did and stays bit-identical.
    tenants: tuple[TenantShare, ...] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        # Finite too: an infinite rate yields every arrival at t = 0 and
        # never ends, a NaN one never yields (``candidate < next_flip``).
        require_at_least(
            "LoadGenerator", "mean_rate_per_hour", self.mean_rate_per_hour, 0, strict=True
        )
        # A pool of 0 would be a second spelling of None.
        if self.circuit_pool_size is not None:
            require_at_least("LoadGenerator", "circuit_pool_size", self.circuit_pool_size, 1)
        if self.arrival_process not in ("poisson", "mmpp"):
            raise ValueError(
                f"unknown arrival_process {self.arrival_process!r}; "
                "choose 'poisson' or 'mmpp'"
            )
        if self.arrival_process == "mmpp":
            # A zero holding time pins simulated time at the flip instant
            # and the chain toggles forever without yielding.
            for name, low in (
                ("burst_rate_multiplier", 1),
                ("mean_calm_seconds", 0),
                ("mean_burst_seconds", 0),
            ):
                require_at_least("LoadGenerator", name, getattr(self, name), low, strict=True)
        if self.shots_grid is not None and len(self.shots_grid) == 0:
            raise ValueError("shots_grid must be non-empty when given")
        # Every other workload field is the sampler's to judge: build one
        # now so a bad value fails here, not at the first ``next()``
        # inside ``CloudSimulator.run``.
        self._make_sampler()

    def _make_sampler(self) -> WorkloadSampler:
        return WorkloadSampler(
            mean_qubits=self.mean_qubits,
            std_qubits=self.std_qubits,
            min_qubits=self.min_qubits,
            max_qubits=self.max_qubits,
            mitigation_fraction=self.mitigation_fraction,
            benchmarks=list(self.benchmarks) if self.benchmarks else None,
            shots_choices=self.shots_grid,
            seed=self.seed + 1,
        )

    def iter_arrivals(
        self, duration_seconds: float
    ) -> Iterator[HybridApplication]:
        """Lazily yield arrivals in [0, duration), in time order.

        Holds O(circuit_pool_size) state; with no pool, O(1) applications
        are alive at a time (whatever the consumer retains).
        """
        rng = np.random.default_rng(self.seed)
        sampler = self._make_sampler()
        # Tenant stamping draws from its own substream: the job/arrival
        # streams above never see these draws, so a tenanted run carries
        # the exact same circuits at the exact same times as the
        # untenanted run it is compared against.
        tenant_rng: np.random.Generator | None = None
        tenant_cdf: np.ndarray | None = None
        if self.tenants:
            # One uniform looked up in the shares' CDF — the draw
            # ``Generator.choice(n, p=p)`` makes (value and stream
            # position) minus its per-call checks of ``p``.
            shares = np.array([t.share for t in self.tenants], dtype=float)
            tenant_cdf = (shares / shares.sum()).cumsum()
            tenant_cdf /= tenant_cdf[-1]
            tenant_rng = np.random.default_rng(
                np.random.SeedSequence(entropy=(self.seed, 0x7E4A47))
            )
        pool: list[QuantumJob] | None = None
        if self.circuit_pool_size:
            pool = [
                self._build_job(sampler.sample(), rng)
                for _ in range(self.circuit_pool_size)
            ]
        # MMPP modulation state.  The poisson path never touches it (and
        # draws no extra randomness), so default streams stay
        # bit-identical to the pre-MMPP generator.
        burst = False
        next_flip = float("inf")
        if self.arrival_process == "mmpp":
            next_flip = rng.exponential(self.mean_calm_seconds)
        t = 0.0
        while True:
            # Next arrival of the (possibly modulated) Poisson process.
            # A candidate past the next state flip is discarded and
            # redrawn from the flip instant at the new state's rate —
            # exact by memorylessness of the exponential.
            while True:
                hour = (t / 3600.0) % 24.0
                rate = (
                    diurnal_rate(hour, self.mean_rate_per_hour)
                    if self.diurnal
                    else self.mean_rate_per_hour
                )
                if burst:
                    rate *= self.burst_rate_multiplier
                candidate = t + rng.exponential(3600.0 / rate)
                if candidate < next_flip:
                    t = candidate
                    break
                t = next_flip
                burst = not burst
                next_flip = t + rng.exponential(
                    self.mean_burst_seconds
                    if burst
                    else self.mean_calm_seconds
                )
            if t >= duration_seconds:
                return
            if pool is not None:
                proto = pool[int(rng.integers(len(pool)))]
                # A resubmission of a pooled program: same structural
                # metrics (shared, content-addressed), fresh job identity.
                job = QuantumJob(
                    metrics=proto.metrics,
                    shots=proto.shots,
                    mitigation=proto.mitigation,
                    benchmark=proto.benchmark,
                )
            else:
                job = self._build_job(sampler.sample(), rng)
            if tenant_rng is not None:
                pick = tenant_cdf.searchsorted(tenant_rng.random(), side="right")
                job.tenant = self.tenants[pick].tenant
            yield HybridApplication(quantum_job=job, arrival_time=t)

    def _build_job(
        self, sampled: SampledJob, rng: np.random.Generator
    ) -> QuantumJob:
        if sampled.uses_mitigation:
            mitigation = _MITIGATED_PRESETS[
                int(rng.integers(len(_MITIGATED_PRESETS)))
            ]
        else:
            mitigation = "none"
        # The recipe's metrics, without building the circuit (shared per
        # width-determined family, like a pooled resubmission's).
        return QuantumJob(
            metrics=sampled.metrics,
            shots=sampled.shots,
            mitigation=mitigation,
            benchmark=sampled.benchmark,
        )

    def generate(self, duration_seconds: float) -> list[HybridApplication]:
        """All arrivals in [0, duration), sorted by arrival time."""
        return list(self.iter_arrivals(duration_seconds))
