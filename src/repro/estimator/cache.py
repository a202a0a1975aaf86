"""Content-addressed estimate caching for the scheduling hot path.

Cloud-scale streams repeat circuit shapes constantly (the workload sampler
draws from a fixed benchmark family), and calibration data only changes at
recalibration boundaries. Estimator predictions are therefore memoizable on

    (circuit-metrics fingerprint, shots, mitigation, calibration epoch)

where the epoch is ``(qpu_name, calibration cycle)``. A recalibration bumps
the cycle, so stale entries can never be served; :meth:`on_recalibration`
additionally drops them to bound memory and refreshes the wrapped
estimator's templates.

:class:`CachedEstimator` is a full :class:`~repro.estimator.source.EstimateSource`:
:class:`~repro.scheduler.quantum.QonductorScheduler` drives its
:meth:`~CachedEstimator.estimate_block` and the FCFS baselines its
:meth:`~CachedEstimator.best_fidelity`.  Both questions share one table
and look a pair up once.  A fidelity-only fill stores an entry without a
runtime; ``estimate_block`` finds such an entry and fills in only its
runtime, keeping the stored fidelity.  A run with one kind of caller
therefore keeps the table it would have with the other, and never stores
a runtime nobody reads.  ``stats`` counts table lookups that found or
missed an entry, and nothing else.

``best_fidelity`` keeps a second, smaller memo: its answer per job key
(:func:`job_key`, the table key's job half) under the QPU list's
signature, the ``(calibration epoch, online)`` of each QPU in order.  A
repeat program is answered from it without a table lookup.

Shards of one fleet share the cache, each asking about its own QPU list,
and the cache learns those lists and their QPUs as they ask.  The first
list to miss a program pays for its own pairs only, so a program nobody
resubmits costs what it did alone.  When a second list misses it, the
same fill also scores it on every other known online QPU that fits and
has no entry (one group per QPU, after the asking list's pairs), and
its answer goes into the memo of every known list whose feasible pairs
were all at hand: under one calibration a resubmitted program is scored
in two fills, not one per shard.  A list that first asks later pays one
fill of its own.  The learned lists, QPUs and first misses are dropped
with the memo.

While at most two QPU lists share the cache and their QPUs stay online,
the table's keys, their order and its fidelities are those of the
per-pair path, at every ``max_entries``: a lookup reorders nothing, so a
memo hit leaves the table as the lookups it stands for would, and an
eviction drops the memo.  Otherwise the table may hold pairs the
per-pair path has not scored yet.  Every answer is the uncached
estimator's in any case: a pair's value does not depend on which other
pairs share its fill.

A block is served in three steps: look up every feasible pair, fill all
the misses through **one stacked pass per model it needs** (not one per
QPU), store them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..backends.qpu import QPU
from ..cloud.job import QuantumJob
from .estimator import ResourceEstimator
from .source import best_feasible, feasibility_matrix, feasible_mask

__all__ = ["CacheStats", "EstimateCache", "CachedEstimator", "job_key"]

def job_key(job: QuantumJob) -> tuple:
    """The job half of an estimate key, ``(fingerprint, shots,
    mitigation)``: the table's pair lookups and ``best_fidelity``'s memo
    key on it, which is what lets a memo hit stand for those lookups."""
    return (job.metrics.fingerprint, job.shots, job.mitigation)


@dataclass
class CacheStats:
    """Table lookups that found (hits) or missed an entry, and
    invalidations, of one cache."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "invalidations": self.invalidations,
        }


class EstimateCache:
    """Bounded memo of ``key -> (fidelity, exec_seconds)`` pairs
    (``exec_seconds`` is ``None`` until a caller asks for it).

    One insertion-ordered dict: a lookup reads and counts and moves
    nothing, overwriting an entry keeps its place, and a new key stored
    into a full table evicts the oldest entry, one per overflow, so the
    table stays full and the hit rate degrades gracefully as
    ``max_entries`` drops below the working set.
    """

    def __init__(self, max_entries: int = 200_000) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: dict[tuple, tuple[float, float | None]] = {}
        self.stats = CacheStats()
        #: Bumped whenever entries leave the table (an eviction or
        #: :meth:`invalidate`): what is derived from its contents holds
        #: only while this is unchanged.
        self.generation = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        """Whether ``key`` has an entry; counts nothing."""
        return key in self._entries

    def get(self, key: tuple) -> tuple[float, float | None] | None:
        hit = self._entries.get(key)
        if hit is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return hit

    def put(self, key: tuple, value: tuple[float, float | None]) -> None:
        entries = self._entries
        if key not in entries and len(entries) >= self.max_entries:
            del entries[next(iter(entries))]
            self.generation += 1
        entries[key] = value

    def invalidate(self) -> None:
        """Drop every entry (epoch keys already prevent stale hits)."""
        self._entries.clear()
        self.stats.invalidations += 1
        self.generation += 1


class CachedEstimator:
    """Memoizing (and batch-capable) wrapper around an estimate source.

    ``base`` is either a :class:`~repro.estimator.estimator.ResourceEstimator`
    or any plain ``(job, qpu) -> (fidelity, exec_seconds)`` callable. With a
    ResourceEstimator, all cache misses of a block are filled by one
    stacked pass of each model the question needs; with a plain callable,
    misses fall back to per-pair calls (still memoized, both halves).
    Nothing is kept per job beyond the bounded cache table and
    :meth:`best_fidelity`'s answers and first misses, never more than
    ``max_entries`` of each.
    """

    def __init__(self, base, *, max_entries: int = 200_000) -> None:
        self.base = base
        self.cache = EstimateCache(max_entries=max_entries)
        self._trained = base.estimators if isinstance(base, ResourceEstimator) else None
        # best_fidelity's state, valid for table generation _generation:
        # the memo (QPU-list signature -> job key -> answer) and its size,
        # the known lists (signature -> (that same signature object,
        # qubits per QPU)) and QPUs (name -> QPU), and the known
        # signature that missed each program first.
        self._best: dict[tuple, dict[tuple, tuple[int, float]]] = {}
        self._best_size = 0
        self._lists: dict[tuple, tuple[tuple, list[int]]] = {}
        self._qpus: dict[str, QPU] = {}
        self._seen: dict[tuple, tuple] = {}
        self._generation = 0

    # ------------------------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        return self.cache.stats

    def on_recalibration(self, qpus: list[QPU]) -> None:
        """Invalidate and propagate the calibration event downstream.

        Every call clears the table, which drops :meth:`best_fidelity`'s
        memo: the simulator calls each distinct estimate source once per
        calibration wave, however many shard policies share it.
        """
        self.cache.invalidate()
        if isinstance(self.base, ResourceEstimator):
            self.base.refresh_templates(qpus)

    # ------------------------------------------------------------------
    def estimate_block(
        self,
        jobs: list[QuantumJob],
        qpus: list[QPU],
        feasible: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(fidelity, exec_seconds) matrices over ``jobs`` x ``qpus``.

        Infeasible pairs (job wider than the QPU) stay zero and are neither
        estimated nor cached.  Every lookup of the block (column-major)
        precedes every store (same order), and all misses are predicted
        together; below ``max_entries`` that is indistinguishable from
        looking up and storing column by column, and at capacity a
        block's own stores can no longer evict an entry one of its later
        columns is about to hit.  A hit stored without a runtime gets one
        (one runtime pass over all such hits, stored before the misses, so
        it updates the entry in place).
        """
        feasible = feasible_mask(self, jobs, qpus, feasible)
        fid, sec = np.zeros((2, len(jobs), len(qpus)))
        hits, missed = self._lookup([job_key(j) for j in jobs], qpus, feasible)
        partial: list[tuple[int, int, tuple, float]] = []  # hits with no runtime
        for i, k, key, (f, s) in hits:
            fid[i, k] = f
            if s is None:
                partial.append((i, k, key, f))
            else:
                sec[i, k] = s
        put = self.cache.put
        if partial:
            assert self._trained is not None  # only its fills store no runtime
            secs = self._trained.runtime.estimate_pairs(*_pairs(jobs, qpus, partial))
            for (i, k, key, f), s in zip(partial, secs.tolist()):
                sec[i, k] = s
                put(key, (f, s))
        if missed:
            for (i, k, key), value in zip(missed, self._fill(jobs, qpus, missed, runtime=True)):
                fid[i, k], sec[i, k] = value
                put(key, value)
        return fid, sec

    def best_fidelity(
        self, jobs: list[QuantumJob], qpus: list[QPU]
    ) -> list[tuple[int, float] | None]:
        """Per job, ``(k, fidelity)`` of the first highest-fidelity QPU
        that fits it, or ``None`` (see
        :func:`~repro.estimator.source.best_feasible`).

        A job whose key was answered under the same QPU-list signature is
        answered from the memo, without a table lookup, and changes
        nothing (nor would its lookups: a lookup reorders nothing).  The
        other jobs form one sub-block, looked up and stored in
        :meth:`estimate_block`'s order, with a miss running the fidelity
        model alone and stored without a runtime; a program a second QPU
        list misses is answered for every known list from that one fill
        (:meth:`_place`).  The memo, with the lists, QPUs and first
        misses learned since, is dropped whenever the table loses
        entries (an eviction, :meth:`on_recalibration`), and never holds
        more than ``max_entries`` answers: a full one starts over.
        Signatures carry the epochs, so it never answers for an old
        calibration even when nobody calls the hook.
        """
        cache = self.cache
        if cache.generation != self._generation:
            self._forget()
        signature = tuple([(q.calibration.epoch, q.online) for q in qpus])
        memo = self._best.get(signature, {})
        keys = [job_key(j) for j in jobs]
        found = [memo.get(key) for key in keys]
        rest = [i for i, answer in enumerate(found) if answer is None]
        if rest:
            placed = self._place([jobs[i] for i in rest], [keys[i] for i in rest], qpus, signature)
            for i, answer in zip(rest, placed):
                found[i] = answer
        return found

    def _forget(self) -> None:
        """Drop what was derived from the table's contents: the memo and
        the QPUs, lists and programs it has seen."""
        self._best.clear()
        self._best_size = 0
        self._lists.clear()
        self._qpus.clear()
        self._seen.clear()
        self._generation = self.cache.generation

    def _learn(self, signature: tuple, qpus: list[QPU]) -> tuple:
        """The known signature equal to ``signature``, learning the QPU
        list behind it, and its QPUs, if it is new.  First misses hold
        known signatures, so a program adds no tuples of its own."""
        known = self._lists.get(signature)
        if known is None:
            cap = self.cache.max_entries
            known = (signature, [q.num_qubits for q in qpus])
            _admit(self._lists, signature, known, cap)
            for qpu in qpus:
                _admit(self._qpus, qpu.name, qpu, cap)
        return known[0]

    def _place(
        self,
        jobs: list[QuantumJob],
        keys: list[tuple],
        qpus: list[QPU],
        signature: tuple,
    ) -> list[tuple[int, float] | None]:
        """The answer per job of a sub-block the memo missed, memoized
        under ``signature`` unless no QPU fits or the sub-block's stores
        evicted.

        A program missed under a second signature within one table
        generation is scored, in the same fill, on every other known QPU
        that fits it, is online and has no entry for it (one group per
        QPU, after the sub-block's own misses).
        Its answer then goes into the memo of every known list whose
        feasible pairs were all looked up or scored here.
        """
        cache = self.cache
        feasible = feasibility_matrix(jobs, qpus)
        fid = np.zeros(feasible.shape)
        hits, missed = self._lookup(keys, qpus, feasible)
        for i, k, _, entry in hits:
            fid[i, k] = entry[0]
        signature = self._learn(signature, qpus)
        second = self._sightings(keys, missed, signature) if missed else {}
        columns, extra = self._spread(jobs, second, missed, len(qpus)) if second else ([], [])
        if missed:
            cells = missed + extra if extra else missed
            values = self._fill(jobs, qpus + columns, cells, runtime=False)
            put = cache.put
            for (i, k, key), value in zip(missed, values):
                fid[i, k] = value[0]
                put(key, value)
            for (_, _, key), value in zip(extra, values[len(missed) :]):
                put(key, value)
        placed = best_feasible(fid, feasible)
        if cache.generation == self._generation:  # nothing evicted
            self._remember(
                signature,
                {key: answer for key, answer in zip(keys, placed) if answer is not None},
            )
            if second:
                scored = {key: entry[0] for _, _, key, entry in hits}
                scored.update((key, value[0]) for (_, _, key), value in zip(cells, values))
                for listed, answers in self._answer_lists(jobs, second, scored):
                    self._remember(listed, answers)
        return placed

    def _sightings(self, keys: list[tuple], missed: list[tuple], signature: tuple) -> dict:
        """``job key -> first row`` of the programs ``missed`` under a
        signature other than the one that missed them first; a program's
        first miss is recorded."""
        seen, cap = self._seen, self.cache.max_entries
        second: dict[tuple, int] = {}
        for i in sorted(dict.fromkeys([i for i, _, _ in missed])):
            key = keys[i]
            first = seen.get(key)
            if first is None:
                _admit(seen, key, signature, cap)
            elif first != signature:
                second.setdefault(key, i)
        return second

    def _spread(
        self, jobs: list[QuantumJob], second: dict, missed: list[tuple], first: int
    ) -> tuple[list[QPU], list[tuple[int, int, tuple]]]:
        """The known online QPUs that fit a ``second`` program with no
        entry for it, and their column-major ``(i, k, key)`` cells, ``k``
        counting from ``first``."""
        cache = self.cache
        pending = {key for _, _, key in missed}
        rows = [(i, key, jobs[i].num_qubits) for key, i in second.items()]
        columns: list[QPU] = []
        cells: list[tuple[int, int, tuple]] = []
        for qpu in self._qpus.values():
            if not qpu.online:
                continue
            k, size, epoch = first + len(columns), qpu.num_qubits, (qpu.calibration.epoch,)
            before = len(cells)
            for i, key, width in rows:
                if width <= size:
                    key += epoch
                    if key not in pending and key not in cache:
                        cells.append((i, k, key))
            if len(cells) > before:
                columns.append(qpu)
        return columns, cells

    def _answer_lists(self, jobs: list[QuantumJob], second: dict, scored: dict):
        """``(signature, answers)`` per known list: each ``second``
        program's answer on that list, where its memo lacks one and every
        feasible pair is in ``scored`` (table key -> fidelity): the first
        maximum, in listing order, under the list's own signature."""
        for signature, sizes in self._lists.values():
            memo = self._best.get(signature, {})
            answers = {}
            for key, i in second.items():
                if key in memo:
                    continue
                width, best = jobs[i].num_qubits, None
                for k, ((epoch, online), size) in enumerate(zip(signature, sizes)):
                    if not online or width > size:
                        continue
                    value = scored.get(key + (epoch,))
                    if value is None:
                        break
                    if best is None or value > best[1]:
                        best = (k, value)
                else:
                    if best is not None:
                        answers[key] = best
            if answers:
                yield signature, answers

    def _remember(self, signature: tuple, answers: dict) -> None:
        """Memoize ``answers`` (job key -> answer, keys the memo lacks)
        under ``signature``; a memo that would outgrow ``max_entries``
        starts over.  Each answer has a table entry of its own, so
        ``answers`` alone never exceeds ``max_entries``."""
        if not answers:
            return
        if self._best_size + len(answers) > self.cache.max_entries:
            self._best.clear()
            self._best_size = 0
        self._best.setdefault(signature, {}).update(answers)
        self._best_size += len(answers)

    def _lookup(self, job_keys: list[tuple], qpus: list[QPU], feasible: np.ndarray):
        """Every feasible pair looked up once, column-major: ``(i, k, key,
        entry)`` per hit and ``(i, k, key)`` per miss."""
        # A table key is the job key plus the QPU's calibration epoch,
        # whose one-tuple is built once per QPU.
        get = self.cache.get
        hits: list[tuple[int, int, tuple, tuple[float, float | None]]] = []
        missed: list[tuple[int, int, tuple]] = []
        for k, (qpu, column) in enumerate(zip(qpus, feasible.T.tolist())):
            epoch = (qpu.calibration.epoch,)
            for i, ok in enumerate(column):
                if not ok:
                    continue
                key = job_keys[i] + epoch
                entry = get(key)
                if entry is None:
                    missed.append((i, k, key))
                else:
                    hits.append((i, k, key, entry))
        return hits, missed

    def _fill(
        self,
        jobs: list[QuantumJob],
        qpus: list[QPU],
        missed: list[tuple[int, int, tuple]],
        *,
        runtime: bool,
    ) -> list[tuple[float, float | None]]:
        """Entries for the ``missed`` (job index, QPU index, key) pairs,
        which arrive column-major: one group per QPU.  Without
        ``runtime`` a trained base runs its fidelity model alone and the
        entries carry ``None``; a plain callable returns both anyway."""
        if self._trained is None:
            return [self.base(jobs[i], qpus[k]) for i, k, _ in missed]
        pairs = _pairs(jobs, qpus, missed)
        fids = self._trained.fidelity.estimate_pairs(*pairs).tolist()
        if not runtime:
            return [(f, None) for f in fids]
        return list(zip(fids, self._trained.runtime.estimate_pairs(*pairs).tolist()))


def _admit(table: dict, key, value, cap: int) -> None:
    """``table[key] = value``; a full ``table`` (``cap`` keys) starts over."""
    if key not in table and len(table) >= cap:
        table.clear()
    table[key] = value


def _pairs(jobs: list[QuantumJob], qpus: list[QPU], cells: list[tuple]):
    """The ``estimate_pairs`` arguments of column-major ``(i, k, ...)``
    cells, in one pass: one feature row per distinct job, however many
    QPUs it is scored on, and one group per run of equal ``k``."""
    slot: dict[int, int] = {}
    groups: list[tuple] = []
    column: list[int] = []
    last: int | None = None
    for cell in cells:
        k = cell[1]
        if k != last:
            last, column = k, []
            groups.append((qpus[k].calibration, column))
        column.append(slot.setdefault(cell[0], len(slot)))
    return [(j.metrics, j.shots, j.mitigation) for j in (jobs[i] for i in slot)], groups
