"""Analytic fidelity model: Estimated Success Probability (ESP).

For circuits too wide to simulate, fidelity is estimated analytically as the
product of per-gate and per-readout success probabilities with a decoherence
factor — the "numerical approach" used by prior work that the paper's
regression estimator is compared against in Fig. 7(b).

``esp`` returns the raw success probability; ``esp_to_hellinger`` converts it
into a Hellinger-fidelity-scale estimate assuming errors scatter outcomes
roughly uniformly (failure mass overlaps with the ideal distribution by the
uniform-overlap amount).

The math is evaluated **batched**: :func:`extract_esp_features` flattens a
circuit once into per-op index/level arrays (cached on the circuit), and
``esp_components_batch`` / ``circuit_duration_ns_batch`` score a whole
jobs-block against one noise model in vectorized passes over the
concatenated feature arrays — gate/readout terms as masked gathers plus
segment sums, and the critical-path walk as one scatter/gather round per
ASAP *level* (ops within a level are wire-disjoint by construction, so
level order reproduces the sequential walk bit for bit).  The
single-circuit functions are thin views over batches of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..circuits.circuit import Circuit
from .noise import NoiseModel

__all__ = [
    "CircuitEspFeatures",
    "extract_esp_features",
    "esp",
    "esp_batch",
    "esp_components",
    "esp_components_batch",
    "esp_to_hellinger",
    "esp_to_hellinger_batch",
    "estimate_fidelity_analytic",
    "estimate_fidelity_analytic_batch",
    "circuit_duration_ns",
    "circuit_duration_ns_batch",
]

# Scheduled-op kinds in the flattened feature arrays.
_KIND_UNITARY = 0
_KIND_READOUT = 1  # measure / reset / project (readout-duration ops)
_KIND_DELAY = 2
_KIND_ZERO = 3  # other non-unitary ops: zero duration, schedule sync only

#: Process-wide gate-name interning so feature arrays carry integer codes.
_GATE_CODES: dict[str, int] = {}


def _gate_code(name: str) -> int:
    code = _GATE_CODES.get(name)
    if code is None:
        code = len(_GATE_CODES)
        _GATE_CODES[name] = code
    return code


_FEATURES_KEY = "_esp_features"


@dataclass(frozen=True, eq=False)
class CircuitEspFeatures:
    """Flattened per-op arrays of one circuit for the batched ESP math.

    All qubit indices are circuit-local; ``level`` is the op's ASAP
    dependency level (1 + max level over its wires' predecessors), the
    key to vectorizing the critical-path walk: ops sharing a level are
    wire-disjoint, so each level updates the per-wire finish times in
    one gather/max/scatter round.  ``source_ops`` is the circuit's op
    list at extraction time and ``source_len`` its length then — together
    the cache-validity token (``Circuit.append`` grows the list in place,
    so identity alone survives an append).
    """

    source_ops: list
    source_len: int
    num_qubits: int
    # Per scheduled (non-barrier) op, in circuit order:
    kind: np.ndarray  # int8, _KIND_*
    q0: np.ndarray  # intp, first qubit
    q1: np.ndarray  # intp, second qubit for 2q ops, else == q0
    arity: np.ndarray  # int8, number of qubits
    name_code: np.ndarray  # intp, interned gate name (-1 for non-unitary)
    delay_ns: np.ndarray  # float64, delay duration (0 elsewhere)
    level: np.ndarray  # intp, ASAP level
    num_levels: int
    # Flat wire list of every scheduled op plus per-op offsets into it:
    wires: np.ndarray  # intp
    wire_starts: np.ndarray  # intp, len == num_ops + 1
    # Barriers interleaved into the level order: ((level, wires), ...).
    barriers: tuple
    meas_qubits: np.ndarray  # intp, qubits of measure ops
    used_qubits: np.ndarray  # intp, sorted


def extract_esp_features(circuit: Circuit) -> CircuitEspFeatures:
    """Extract (and cache on ``circuit.metadata``) the ESP feature arrays.

    The cache is validated against the identity and length of the op
    list, so circuit copies, transforms and in-place appends re-extract
    while repeated scoring of the same circuit object pays the walk once.
    """
    cached = circuit.metadata.get(_FEATURES_KEY)
    if (
        cached is not None
        and cached.source_ops is circuit.ops
        and cached.source_len == len(circuit.ops)
    ):
        return cached

    n = circuit.num_qubits
    wire_level = [0] * n
    kind: list[int] = []
    q0: list[int] = []
    q1: list[int] = []
    arity: list[int] = []
    name_code: list[int] = []
    delay_ns: list[float] = []
    level: list[int] = []
    wires: list[int] = []
    wire_starts: list[int] = [0]
    barriers: list[tuple[int, np.ndarray]] = []
    meas: list[int] = []

    for g in circuit.ops:
        if g.name == "barrier":
            bw = g.qubits if g.qubits else tuple(range(n))
            lvl = max((wire_level[q] for q in bw), default=0)
            for q in bw:
                wire_level[q] = lvl + 1
            barriers.append((lvl, np.asarray(bw, dtype=np.intp)))
            continue
        qs = g.qubits
        lvl = max(wire_level[q] for q in qs)
        for q in qs:
            wire_level[q] = lvl + 1
        if g.name == "delay":
            k, code, d = _KIND_DELAY, -1, float(g.params[0])
        elif g.name in ("measure", "reset", "project"):
            k, code, d = _KIND_READOUT, -1, 0.0
            if g.name == "measure":
                meas.append(qs[0])
        elif g.is_unitary:
            k, code, d = _KIND_UNITARY, _gate_code(g.name), 0.0
        else:
            k, code, d = _KIND_ZERO, -1, 0.0
        kind.append(k)
        q0.append(qs[0])
        q1.append(qs[1] if len(qs) == 2 else qs[0])
        arity.append(len(qs))
        name_code.append(code)
        delay_ns.append(d)
        level.append(lvl)
        wires.extend(qs)
        wire_starts.append(len(wires))

    features = CircuitEspFeatures(
        source_ops=circuit.ops,
        source_len=len(circuit.ops),
        num_qubits=n,
        kind=np.asarray(kind, dtype=np.int8),
        q0=np.asarray(q0, dtype=np.intp),
        q1=np.asarray(q1, dtype=np.intp),
        arity=np.asarray(arity, dtype=np.int8),
        name_code=np.asarray(name_code, dtype=np.intp),
        delay_ns=np.asarray(delay_ns, dtype=np.float64),
        level=np.asarray(level, dtype=np.intp),
        num_levels=(max(level) + 1) if level else 0,
        wires=np.asarray(wires, dtype=np.intp),
        wire_starts=np.asarray(wire_starts, dtype=np.intp),
        barriers=tuple(barriers),
        meas_qubits=np.asarray(meas, dtype=np.intp),
        used_qubits=np.asarray(sorted(circuit.used_qubits()), dtype=np.intp),
    )
    circuit.metadata[_FEATURES_KEY] = features
    return features


# ----------------------------------------------------------------------
# Noise-model arrays (rebuilt per batch call: O(num_qubits + edges)).
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _ModelArrays:
    t1: np.ndarray
    inv_tphi: np.ndarray
    ro_err: np.ndarray
    err2: np.ndarray  # dense (n, n), symmetric
    dur2: np.ndarray
    rz_code: int


def _model_arrays(noise_model: NoiseModel) -> _ModelArrays:
    n = noise_model.num_qubits
    t1 = np.array([q.t1_us for q in noise_model.qubits])
    t2 = np.array([q.t2_us for q in noise_model.qubits])
    ro_err = np.array([q.readout_error for q in noise_model.qubits])
    err2 = np.full((n, n), noise_model.default_2q.error)
    dur2 = np.full((n, n), noise_model.default_2q.duration_ns)
    for (a, b), gn in noise_model.gates_2q.items():
        err2[a, b] = err2[b, a] = gn.error
        dur2[a, b] = dur2[b, a] = gn.duration_ns
    return _ModelArrays(
        t1=t1,
        inv_tphi=np.maximum(0.0, 1.0 / t2 - 0.5 / t1),
        ro_err=ro_err,
        err2=err2,
        dur2=dur2,
        rz_code=_gate_code("rz"),
    )


def _lookup_1q(
    out: np.ndarray,
    mask: np.ndarray,
    name_code: np.ndarray,
    q0: np.ndarray,
    noise_model: NoiseModel,
    rz_code: int,
    attr: str,
) -> None:
    """Fill ``out[mask]`` with the 1q-path gate-noise attribute, honoring
    the lookup fallback order: explicit ``(name, qubit)`` entry, else rz
    is virtual (0 error / 0 ns), else the 1q default."""
    out[mask] = getattr(noise_model.default_1q, attr)
    out[mask & (name_code == rz_code)] = 0.0
    for (name, q), gn in noise_model.gates_1q.items():
        m = mask & (name_code == _gate_code(name)) & (q0 == q)
        out[m] = getattr(gn, attr)


# ----------------------------------------------------------------------
# The batched block: concatenated features of many circuits.
# ----------------------------------------------------------------------
class _FeatureBlock:
    """Feature arrays of a jobs-block, concatenated with qubit offsets."""

    def __init__(self, feats: list[CircuitEspFeatures]) -> None:
        self.num_circuits = len(feats)
        nq = np.array([f.num_qubits for f in feats], dtype=np.intp)
        self.qubit_base = np.concatenate(([0], np.cumsum(nq)))[:-1]
        self.total_qubits = int(nq.sum())
        ops_per = np.array([len(f.kind) for f in feats], dtype=np.intp)
        self.op_circuit = np.repeat(np.arange(self.num_circuits), ops_per)

        def cat(field, dtype):
            parts = [getattr(f, field) for f in feats]
            if not parts:
                return np.zeros(0, dtype=dtype)
            return np.concatenate(parts).astype(dtype, copy=False)

        self.kind = cat("kind", np.int8)
        self.q0 = cat("q0", np.intp)  # circuit-local: noise-model lookups
        self.q1 = cat("q1", np.intp)
        self.arity = cat("arity", np.int8)
        self.name_code = cat("name_code", np.intp)
        self.delay_ns = cat("delay_ns", np.float64)
        level = cat("level", np.intp)
        self.num_levels = max((f.num_levels for f in feats), default=0)

        # Global wire indices (into the concatenated finish array).
        wires_per = np.array([len(f.wires) for f in feats], dtype=np.intp)
        wire_circuit = np.repeat(np.arange(self.num_circuits), wires_per)
        wires_local = cat("wires", np.intp)
        wires_global = wires_local + self.qubit_base[wire_circuit]
        counts = np.concatenate(
            [np.diff(f.wire_starts) for f in feats]
            or [np.zeros(0, dtype=np.intp)]
        ).astype(np.intp, copy=False)
        wire_starts = np.concatenate(([0], np.cumsum(counts)))

        # Level-sorted op order plus its reordered flat wire list, so each
        # level is one contiguous slice for the schedule walk.
        perm = np.argsort(level, kind="stable")
        self.level_bounds = np.searchsorted(
            level[perm], np.arange(self.num_levels + 1)
        )
        self.perm = perm
        sorted_counts = counts[perm]
        self.sorted_wire_starts = np.concatenate(
            ([0], np.cumsum(sorted_counts))
        )
        total_wires = int(counts.sum())
        gather = np.repeat(wire_starts[perm], sorted_counts) + (
            np.arange(total_wires)
            - np.repeat(self.sorted_wire_starts[:-1], sorted_counts)
        )
        self.sorted_wires = wires_global[gather]

        # Barriers, tagged with their level and global wires.
        per_level: dict[int, list[np.ndarray]] = {}
        for f, base in zip(feats, self.qubit_base):
            for lvl, bw in f.barriers:
                per_level.setdefault(lvl, []).append(bw + base)
        self.barriers_at = per_level

        meas_per = np.array([len(f.meas_qubits) for f in feats], dtype=np.intp)
        self.meas_circuit = np.repeat(np.arange(self.num_circuits), meas_per)
        self.meas_qubits = cat("meas_qubits", np.intp)
        used_per = np.array([len(f.used_qubits) for f in feats], dtype=np.intp)
        self.used_circuit = np.repeat(np.arange(self.num_circuits), used_per)
        self.used_qubits = cat("used_qubits", np.intp)


def _op_durations(
    block: _FeatureBlock, noise_model: NoiseModel, arrs: _ModelArrays
) -> np.ndarray:
    """Duration of every scheduled op in the block, vectorized."""
    dur = np.zeros(len(block.kind))
    unitary = block.kind == _KIND_UNITARY
    two = unitary & (block.arity == 2)
    one = unitary & ~two
    dur[two] = arrs.dur2[block.q0[two], block.q1[two]]
    _lookup_1q(
        dur, one, block.name_code, block.q0, noise_model, arrs.rz_code,
        "duration_ns",
    )
    dur[block.kind == _KIND_READOUT] = noise_model.readout_duration_ns
    dur = np.where(block.kind == _KIND_DELAY, block.delay_ns, dur)
    return dur


def _schedule_finish(block: _FeatureBlock, dur: np.ndarray) -> np.ndarray:
    """Per-wire finish times after the level-ordered critical-path walk.

    Equivalent to the sequential per-op walk: levels are a topological
    order, and ops within one level are wire-disjoint, so each level's
    starts can be gathered, maxed per op, and scattered in one round.
    """
    finish = np.zeros(block.total_qubits)
    dur_sorted = dur[block.perm]
    for lvl in range(block.num_levels):
        a, b = block.level_bounds[lvl], block.level_bounds[lvl + 1]
        if b > a:
            wa = block.sorted_wire_starts[a]
            wb = block.sorted_wire_starts[b]
            wires = block.sorted_wires[wa:wb]
            op_starts = block.sorted_wire_starts[a:b] - wa
            starts = np.maximum.reduceat(finish[wires], op_starts)
            ends = starts + dur_sorted[a:b]
            counts = np.diff(block.sorted_wire_starts[a : b + 1])
            finish[wires] = np.repeat(ends, counts)
        for bw in block.barriers_at.get(lvl, ()):
            finish[bw] = finish[bw].max()
    return finish


# ----------------------------------------------------------------------
# Public batched API.
# ----------------------------------------------------------------------
def esp_components_batch(
    circuits: list[Circuit], noise_model: NoiseModel
) -> dict[str, np.ndarray]:
    """Per-circuit log-survival contributions for a jobs-block.

    Returns ``{"gate", "readout", "decoherence", "duration_ns"}`` arrays
    aligned with ``circuits`` (``esp = exp(gate + readout + decoherence)``;
    ``duration_ns`` is the critical-path schedule length the decoherence
    term integrates over).  One vectorized pass over the block's
    concatenated feature arrays replaces per-circuit gate walks.
    """
    num = len(circuits)
    if num == 0:
        z = np.zeros(0)
        return {
            "gate": z, "readout": z.copy(), "decoherence": z.copy(),
            "duration_ns": z.copy(),
        }
    block = _FeatureBlock([extract_esp_features(c) for c in circuits])
    arrs = _model_arrays(noise_model)

    # Gate term: masked error gathers + a per-circuit segment sum.
    unitary = block.kind == _KIND_UNITARY
    err = np.zeros(len(block.kind))
    two = unitary & (block.arity == 2)
    err[two] = arrs.err2[block.q0[two], block.q1[two]]
    _lookup_1q(
        err, unitary & ~two, block.name_code, block.q0, noise_model,
        arrs.rz_code, "error",
    )
    with np.errstate(divide="ignore"):
        gate_terms = np.log1p(-np.minimum(err[unitary], 1.0))
    log_gate = np.bincount(
        block.op_circuit[unitary], weights=gate_terms, minlength=num
    )

    # Readout term over measure ops.
    with np.errstate(divide="ignore"):
        ro_terms = np.log1p(
            -np.minimum(arrs.ro_err[block.meas_qubits], 1.0)
        )
    log_readout = np.bincount(
        block.meas_circuit, weights=ro_terms, minlength=num
    )

    # Critical-path duration, then decoherence over the used qubits.
    dur = _op_durations(block, noise_model, arrs)
    finish = _schedule_finish(block, dur)
    duration_ns = np.maximum.reduceat(finish, block.qubit_base)
    weights = 0.5 / arrs.t1 + 0.5 * arrs.inv_tphi
    per_circuit = np.bincount(
        block.used_circuit, weights=weights[block.used_qubits], minlength=num
    )
    log_decoh = -(duration_ns / 1000.0) * per_circuit

    # Legacy short-circuit semantics: a certain gate error blanks the
    # other terms; a certain readout error blanks gate and decoherence.
    gate_bad = np.isneginf(log_gate)
    ro_bad = np.isneginf(log_readout) & ~gate_bad
    log_readout = np.where(gate_bad, 0.0, log_readout)
    log_gate = np.where(ro_bad, 0.0, log_gate)
    log_decoh = np.where(gate_bad | ro_bad, 0.0, log_decoh)
    return {
        "gate": log_gate,
        "readout": log_readout,
        "decoherence": log_decoh,
        "duration_ns": duration_ns,
    }


def circuit_duration_ns_batch(
    circuits: list[Circuit], noise_model: NoiseModel
) -> np.ndarray:
    """Critical-path durations of a jobs-block under one noise model."""
    if not circuits:
        return np.zeros(0)
    block = _FeatureBlock([extract_esp_features(c) for c in circuits])
    arrs = _model_arrays(noise_model)
    dur = _op_durations(block, noise_model, arrs)
    finish = _schedule_finish(block, dur)
    return np.maximum.reduceat(finish, block.qubit_base)


def esp_batch(circuits: list[Circuit], noise_model: NoiseModel) -> np.ndarray:
    """Estimated success probabilities of a jobs-block (vectorized)."""
    comps = esp_components_batch(circuits, noise_model)
    total = comps["gate"] + comps["readout"] + comps["decoherence"]
    return np.exp(total)


def esp_to_hellinger_batch(
    esp_values: np.ndarray,
    num_qubits: np.ndarray,
    support_exponent: float = 0.5,
) -> np.ndarray:
    """Vectorized :func:`esp_to_hellinger` over aligned arrays."""
    esp_values = np.clip(np.asarray(esp_values, dtype=float), 0.0, 1.0)
    n_eff = np.maximum(1, np.asarray(num_qubits))
    support_frac = 2.0 ** (
        -(1.0 - support_exponent) * np.minimum(n_eff, 60)
    )
    return np.minimum(1.0, esp_values + (1.0 - esp_values) * support_frac)


def estimate_fidelity_analytic_batch(
    circuits: list[Circuit], noise_model: NoiseModel
) -> np.ndarray:
    """Batched one-call analytic Hellinger-fidelity estimates."""
    widths = np.array([c.num_qubits for c in circuits], dtype=np.intp)
    return esp_to_hellinger_batch(esp_batch(circuits, noise_model), widths)


# ----------------------------------------------------------------------
# Single-circuit views (batches of one).
# ----------------------------------------------------------------------
def circuit_duration_ns(circuit: Circuit, noise_model: NoiseModel) -> float:
    """Critical-path duration of ``circuit`` under the model's gate times."""
    return float(circuit_duration_ns_batch([circuit], noise_model)[0])


def esp_components(circuit: Circuit, noise_model: NoiseModel) -> dict[str, float]:
    """Log-survival contributions split by error source.

    Returns ``{"gate": ..., "readout": ..., "decoherence": ...}`` with
    ``esp = exp(sum(values))``. The split is what lets the execution model
    apply error-mitigation techniques mechanistically: REM attacks the
    readout term, DD the (quasi-static share of the) decoherence term, and
    ZNE/twirling the gate term.
    """
    comps = esp_components_batch([circuit], noise_model)
    return {
        "gate": float(comps["gate"][0]),
        "readout": float(comps["readout"][0]),
        "decoherence": float(comps["decoherence"][0]),
    }


def esp(circuit: Circuit, noise_model: NoiseModel) -> float:
    """Estimated success probability: product of gate/readout survivals
    times a critical-path decoherence factor."""
    total = sum(esp_components(circuit, noise_model).values())
    if total == -math.inf:
        return 0.0
    return float(math.exp(total))


def esp_to_hellinger(esp_value: float, num_qubits: int, support_exponent: float = 0.5) -> float:
    """Convert ESP into a Hellinger-fidelity-scale estimate.

    Model the noisy output as the mixture ``esp * ideal + (1-esp) * uniform``.
    For an ideal distribution uniform over K basis states the Hellinger
    fidelity of that mixture against the ideal is exactly
    ``esp + K (1-esp) / 2**n``. We take ``K = 2**(support_exponent * n)`` as
    the effective support of a typical benchmark circuit, so the correction
    vanishes for wide circuits and is mild for narrow ones.
    """
    esp_value = min(1.0, max(0.0, esp_value))
    n_eff = max(1, num_qubits)
    support_frac = 2.0 ** (-(1.0 - support_exponent) * min(n_eff, 60))
    return min(1.0, esp_value + (1.0 - esp_value) * support_frac)


def estimate_fidelity_analytic(circuit: Circuit, noise_model: NoiseModel) -> float:
    """One-call analytic Hellinger-fidelity estimate for any circuit size."""
    return esp_to_hellinger(esp(circuit, noise_model), circuit.num_qubits)
