"""The unified estimate-source surface of the scheduling stack.

Everything that scores (job, QPU) pairs — the trained regression
estimator, its memoizing cache, and the analytic ESP proxy — implements
one protocol: :class:`EstimateSource`, whose single method
``estimate_block(jobs, qpus, feasible=None)`` returns the ``(fidelity,
exec_seconds)`` matrix pair for a whole jobs-block.  Schedulers and
baseline policies build their matrices through this one batched call
path; the former ``hasattr``-sniffed ``estimate_for_qpu`` /
bare-callable duck typing is gone from the hot path and survives only as
:func:`as_estimate_source`, the deprecation adapter that wraps legacy
pair-wise sources.

This module is intentionally a leaf (numpy + stdlib only) so every layer
— :mod:`repro.scheduler`, :mod:`repro.cloud`, :mod:`repro.estimator` —
can import it without ordering concerns.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable
from typing import Any, Protocol, cast, runtime_checkable

import numpy as np

#: A legacy pair-wise scorer: ``(job, qpu) -> (fidelity, exec_seconds)``.
PairFn = Callable[[Any, Any], tuple[float, float]]

__all__ = [
    "EstimateSource",
    "PairFn",
    "PairwiseEstimateSource",
    "as_estimate_source",
    "block_feasibility",
]


@runtime_checkable
class EstimateSource(Protocol):
    """Batched estimate provider for the scheduling hot path.

    ``estimate_block(jobs, qpus, feasible=None)`` returns two
    ``(len(jobs), len(qpus))`` float arrays — estimated fidelity and
    estimated execution seconds.  ``feasible`` is an optional boolean
    mask of the same shape (job fits the QPU and the QPU is online);
    when omitted, implementations compute it themselves.  Infeasible
    pairs are left at 0.0 and must not be evaluated — that contract is
    what lets implementations skip work and callers mask scores safely.

    Implementations may additionally be callable with ``(job, qpu)``
    for sequential consumers (e.g. least-busy scoring) and may expose
    an ``on_recalibration(qpus)`` hook; both are optional.
    """

    def estimate_block(
        self,
        jobs: list[Any],
        qpus: list[Any],
        feasible: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]: ...


def block_feasibility(jobs: list[Any], qpus: list[Any]) -> np.ndarray:
    """Width/online feasibility mask, mirroring
    :func:`repro.cloud.job.feasibility_matrix` (kept local so this
    module stays a leaf)."""
    widths = np.array([j.num_qubits for j in jobs], dtype=int)
    caps = np.array(
        [q.num_qubits if q.online else -1 for q in qpus], dtype=int
    )
    return widths[:, None] <= caps[None, :]


class PairwiseEstimateSource:
    """Adapter presenting a legacy pair-wise estimator as an
    :class:`EstimateSource`.

    ``pair_fn`` is a ``(job, qpu) -> (fidelity, exec_seconds)`` callable;
    ``origin`` (when the callable is a bound method of a richer object)
    keeps the wrapped object reachable so ``on_recalibration`` and
    ``stats`` forward to it.  ``estimate_block`` fills the matrices with
    one pair call per feasible cell in row-major order — exactly the
    loop the schedulers used to inline, so adapted sources stay
    bit-identical to the pre-protocol behavior.
    """

    def __init__(self, pair_fn: PairFn, origin: Any = None) -> None:
        self.pair_fn = pair_fn
        self.origin = origin if origin is not None else pair_fn

    def __call__(self, job: Any, qpu: Any) -> tuple[float, float]:
        return self.pair_fn(job, qpu)

    def estimate_block(
        self,
        jobs: list[Any],
        qpus: list[Any],
        feasible: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        if feasible is None:
            feasible = block_feasibility(jobs, qpus)
        fid = np.zeros((len(jobs), len(qpus)))
        sec = np.zeros((len(jobs), len(qpus)))
        for i, job in enumerate(jobs):
            for k, qpu in enumerate(qpus):
                if feasible[i, k]:
                    fid[i, k], sec[i, k] = self.pair_fn(job, qpu)
        return fid, sec

    def on_recalibration(self, qpus: list[Any]) -> None:
        hook = getattr(self.origin, "on_recalibration", None)
        if hook is not None:
            hook(qpus)

    @property
    def stats(self) -> Any:
        return getattr(self.origin, "stats", None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PairwiseEstimateSource({self.origin!r})"


def as_estimate_source(source: Any) -> EstimateSource:
    """Coerce any historical estimate-source shape into an
    :class:`EstimateSource`.

    Objects that already expose ``estimate_block`` pass through
    unchanged.  Legacy shapes — an object with ``estimate_for_qpu`` or a
    bare ``(job, qpu)`` callable — are wrapped in a
    :class:`PairwiseEstimateSource` with a :class:`DeprecationWarning`;
    they keep working (and stay bit-identical), but lose the batched
    fast path.
    """
    if hasattr(source, "estimate_block"):
        return cast(EstimateSource, source)
    if hasattr(source, "estimate_for_qpu"):
        warnings.warn(
            f"{type(source).__name__}.estimate_for_qpu-style sources are "
            "deprecated; implement estimate_block (see "
            "repro.estimator.source.EstimateSource)",
            DeprecationWarning,
            stacklevel=2,
        )
        return PairwiseEstimateSource(source.estimate_for_qpu, origin=source)
    if callable(source):
        warnings.warn(
            "bare (job, qpu) estimate callables are deprecated; implement "
            "estimate_block (see repro.estimator.source.EstimateSource)",
            DeprecationWarning,
            stacklevel=2,
        )
        return PairwiseEstimateSource(source)
    raise TypeError(
        f"cannot adapt {type(source).__name__!r} into an EstimateSource"
    )
