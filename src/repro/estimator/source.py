"""The unified estimate-source surface of the scheduling stack.

Everything that scores (job, QPU) pairs — the trained regression
estimator and its memoizing cache — implements one protocol:
:class:`EstimateSource`, which answers two questions about a whole
jobs-block.  ``estimate_block(jobs, qpus, feasible=None)`` returns the
``(fidelity, exec_seconds)`` matrix pair (the Qonductor scheduler reads
both).  ``best_fidelity(jobs, qpus)`` returns, per job, the index of the
highest-fidelity QPU that fits it and that fidelity, or ``None`` when
none does — the one question the FCFS baselines ask; it never runs the
runtime model.  ``on_recalibration(qpus)`` is the calibration-cycle hook.
Schedulers and baseline policies ask through these batched calls, and
take nothing else: :func:`require_estimate_source` rejects any other
shape at construction.  Both questions mask with
:func:`feasibility_matrix`, the one definition of the size constraint,
and :func:`best_feasible` is the one definition of "best": the first
maximum over a job's feasible QPUs, in listing order.
A synthetic ``(job, qpu)`` scorer (test fakes,
``experiments/rebalance.skew_estimate``) is wrapped explicitly in
:class:`PairwiseEstimateSource`.

This module is intentionally a leaf (numpy + stdlib only) so every layer
— :mod:`repro.scheduler`, :mod:`repro.cloud`, :mod:`repro.estimator` —
can import it without ordering concerns.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any, Protocol, runtime_checkable

import numpy as np

__all__ = [
    "EstimateSource",
    "PairwiseEstimateSource",
    "best_feasible",
    "feasibility_matrix",
    "feasible_mask",
    "require_estimate_source",
]


@runtime_checkable
class EstimateSource(Protocol):
    """Batched estimate provider for the scheduling hot path.

    ``estimate_block(jobs, qpus, feasible=None)`` returns two
    ``(len(jobs), len(qpus))`` float arrays — estimated fidelity and
    estimated execution seconds.  ``feasible`` is an optional boolean
    mask of the same shape (job fits the QPU and the QPU is online); when
    omitted, implementations compute it themselves, and a mask of any
    other shape is a ``ValueError``.  Infeasible pairs are left at 0.0
    and must not be evaluated — that contract is what lets
    implementations skip work and callers mask scores safely.

    ``best_fidelity(jobs, qpus)`` returns one entry per job:
    :func:`best_feasible` of the fidelity half of ``estimate_block(jobs,
    qpus)`` over :func:`feasibility_matrix`, i.e. ``(k, fidelity)`` of
    the first highest-fidelity QPU that fits the job, or ``None``.  It
    takes no mask (a memoizing implementation may rely on the mask being
    :func:`feasibility_matrix`) and estimates no runtime.

    ``on_recalibration(qpus)`` is called with the whole fleet after
    every calibration cycle, once per source however many shard policies
    share it — stateful sources drop what the old epoch made stale,
    stateless ones do nothing.
    """

    def estimate_block(
        self,
        jobs: list[Any],
        qpus: list[Any],
        feasible: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]: ...

    def best_fidelity(
        self, jobs: list[Any], qpus: list[Any]
    ) -> list[tuple[int, float] | None]: ...

    def on_recalibration(self, qpus: list[Any]) -> None: ...


def feasibility_matrix(jobs: list[Any], qpus: list[Any]) -> np.ndarray:
    """(jobs x qpus) bool mask of width-feasible assignments.

    The single definition of the scheduling size constraint ``q_i <= s_k``;
    offline devices are infeasible.
    """
    widths = np.array([j.num_qubits for j in jobs], dtype=int)
    caps = np.array(
        [q.num_qubits if q.online else -1 for q in qpus], dtype=int
    )
    return widths[:, None] <= caps[None, :]


def best_feasible(
    fid: np.ndarray, feasible: np.ndarray
) -> list[tuple[int, float] | None]:
    """Per row, ``(k, fid[i, k])`` for the first column ``k`` holding the
    row's highest value among its ``feasible`` columns, or ``None`` when
    no column of the row is feasible."""
    if not feasible.size:
        return [None] * len(feasible)
    best = np.where(feasible, fid, -np.inf).argmax(axis=1)
    values = fid[np.arange(len(best)), best]
    return [
        (k, value) if ok else None
        for k, value, ok in zip(
            best.tolist(), values.tolist(), feasible.any(axis=1).tolist()
        )
    ]


def feasible_mask(
    source: object, jobs: list[Any], qpus: list[Any], feasible: np.ndarray | None
) -> np.ndarray:
    """``feasible``, or :func:`feasibility_matrix` when it is ``None``; a
    mask not shaped ``(len(jobs), len(qpus))`` is a ``ValueError`` naming
    ``source``'s type and both shapes."""
    if feasible is None:
        return feasibility_matrix(jobs, qpus)
    if feasible.shape != (len(jobs), len(qpus)):
        raise ValueError(
            f"{type(source).__name__}: feasible mask has shape "
            f"{feasible.shape}, the block is {(len(jobs), len(qpus))}"
        )
    return feasible


class PairwiseEstimateSource:
    """A ``(job, qpu) -> (fidelity, exec_seconds)`` callable presented as
    an :class:`EstimateSource`: one ``pair_fn`` call per feasible cell,
    in row-major order (``best_fidelity`` reads the first half)."""

    def __init__(
        self, pair_fn: Callable[[Any, Any], tuple[float, float]]
    ) -> None:
        self.pair_fn = pair_fn

    def __call__(self, job: Any, qpu: Any) -> tuple[float, float]:
        return self.pair_fn(job, qpu)

    def estimate_block(
        self,
        jobs: list[Any],
        qpus: list[Any],
        feasible: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        feasible = feasible_mask(self, jobs, qpus, feasible)
        fid = np.zeros((len(jobs), len(qpus)))
        sec = np.zeros((len(jobs), len(qpus)))
        for i, job in enumerate(jobs):
            for k, qpu in enumerate(qpus):
                if feasible[i, k]:
                    fid[i, k], sec[i, k] = self.pair_fn(job, qpu)
        return fid, sec

    def best_fidelity(
        self, jobs: list[Any], qpus: list[Any]
    ) -> list[tuple[int, float] | None]:
        feasible = feasibility_matrix(jobs, qpus)
        return best_feasible(self.estimate_block(jobs, qpus, feasible)[0], feasible)

    def on_recalibration(self, qpus: list[Any]) -> None:
        """Stateless: ``pair_fn`` reads the QPUs it is handed."""


def require_estimate_source(source: Any, owner: str) -> EstimateSource:
    """``source`` if it implements :class:`EstimateSource`, else a
    ``TypeError`` naming ``owner`` and the fix."""
    if not isinstance(source, EstimateSource):
        raise TypeError(
            f"{owner} needs an EstimateSource (an object with "
            "estimate_block, best_fidelity and on_recalibration), got "
            f"{type(source).__name__}: pass "
            "estimator.cached(), or wrap a (job, qpu) callable in "
            "repro.estimator.source.PairwiseEstimateSource"
        )
    return source
