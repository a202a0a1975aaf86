"""Property-based tests (hypothesis) on core data structures & invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from helpers.reference_kernels import fast_non_dominated_sort
from repro.circuits import Circuit, compute_metrics
from repro.mitigation import fold_to_factor, zne_infer_probs
from repro.mitigation.rem import _simplex_project
from repro.moo.mcdm import pseudo_weights, select_by_preference
from repro.moo.sorting import crowding_distance, pareto_front_mask
from repro.simulation import hellinger_fidelity, ideal_probabilities

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

_gate_1q = st.sampled_from(["h", "x", "s", "t", "sx"])
_angles = st.floats(-6.28, 6.28, allow_nan=False)


@st.composite
def random_circuits(draw, max_qubits=5, max_ops=25):
    n = draw(st.integers(2, max_qubits))
    circ = Circuit(n)
    for _ in range(draw(st.integers(1, max_ops))):
        kind = draw(st.integers(0, 3))
        q = draw(st.integers(0, n - 1))
        if kind == 0:
            circ.add(draw(_gate_1q), [q])
        elif kind == 1:
            circ.rz(draw(_angles), q)
        elif kind == 2:
            circ.ry(draw(_angles), q)
        else:
            p = draw(st.integers(0, n - 1))
            if p != q:
                circ.cx(q, p)
    return circ


@st.composite
def prob_vectors(draw, max_bits=4):
    n = draw(st.integers(1, max_bits))
    vals = draw(
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False),
            min_size=2**n,
            max_size=2**n,
        ).filter(lambda v: sum(v) > 1e-6)
    )
    arr = np.array(vals)
    return arr / arr.sum()


@st.composite
def objective_matrices(draw, max_rows=12):
    rows = draw(st.integers(2, max_rows))
    data = draw(
        st.lists(
            st.tuples(
                st.floats(0, 100, allow_nan=False),
                st.floats(0, 100, allow_nan=False),
            ),
            min_size=rows,
            max_size=rows,
        )
    )
    return np.array(data)


# ----------------------------------------------------------------------
# circuit invariants
# ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(random_circuits())
def test_depth_never_exceeds_size(circ):
    m = compute_metrics(circ)
    assert 0 <= m.depth <= m.size


@settings(max_examples=40, deadline=None)
@given(random_circuits())
def test_statevector_normalized(circ):
    probs = ideal_probabilities(circ)
    assert abs(probs.sum() - 1.0) < 1e-9


@settings(max_examples=30, deadline=None)
@given(random_circuits(max_qubits=4, max_ops=15))
def test_inverse_composition_is_identity(circ):
    roundtrip = circ.copy().compose(circ.inverse())
    probs = ideal_probabilities(roundtrip)
    assert probs[0] > 1.0 - 1e-9


@settings(max_examples=30, deadline=None)
@given(random_circuits(max_qubits=4, max_ops=12), st.floats(1.0, 5.0))
def test_folding_preserves_distribution(circ, factor):
    folded = fold_to_factor(circ, factor)
    f = hellinger_fidelity(ideal_probabilities(folded), ideal_probabilities(circ))
    assert f > 1.0 - 1e-6


# ----------------------------------------------------------------------
# distribution metrics
# ----------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(prob_vectors(), prob_vectors())
def test_hellinger_bounds_and_symmetry(p, q):
    if len(p) != len(q):
        return
    f_pq = hellinger_fidelity(p, q)
    f_qp = hellinger_fidelity(q, p)
    assert 0.0 <= f_pq <= 1.0
    assert abs(f_pq - f_qp) < 1e-9


@settings(max_examples=50, deadline=None)
@given(prob_vectors())
def test_self_fidelity_is_one(p):
    assert abs(hellinger_fidelity(p, p) - 1.0) < 1e-9


# ----------------------------------------------------------------------
# mitigation post-processing invariants
# ----------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(prob_vectors(max_bits=3), prob_vectors(max_bits=3), prob_vectors(max_bits=3))
def test_zne_inference_returns_distribution(p1, p2, p3):
    if not (len(p1) == len(p2) == len(p3)):
        return
    out = zne_infer_probs([1.0, 3.0, 5.0], [p1, p2, p3])
    assert abs(out.sum() - 1.0) < 1e-9
    assert np.all(out >= -1e-12)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-2, 2, allow_nan=False), min_size=2, max_size=16)
)
def test_simplex_projection(vec):
    out = _simplex_project(np.array(vec))
    assert abs(out.sum() - 1.0) < 1e-9
    assert np.all(out >= 0)


# ----------------------------------------------------------------------
# multi-objective invariants
# ----------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(objective_matrices())
def test_fronts_partition_population(F):
    fronts = fast_non_dominated_sort(F)
    flat = np.concatenate(fronts)
    assert sorted(flat.tolist()) == list(range(len(F)))


@settings(max_examples=50, deadline=None)
@given(objective_matrices())
def test_first_front_is_non_dominated(F):
    fronts = fast_non_dominated_sort(F)
    mask = pareto_front_mask(F)
    assert set(fronts[0]) == set(np.where(mask)[0])


@settings(max_examples=50, deadline=None)
@given(objective_matrices())
def test_crowding_non_negative(F):
    d = crowding_distance(F)
    assert np.all(d >= 0)


@settings(max_examples=50, deadline=None)
@given(objective_matrices())
def test_pseudo_weights_valid(F):
    w = pseudo_weights(F)
    assert np.all(w >= -1e-12)
    assert np.allclose(w.sum(axis=1), 1.0)


@settings(max_examples=50, deadline=None)
@given(objective_matrices(), st.floats(0.01, 0.99))
def test_selection_always_in_range(F, p):
    idx = select_by_preference(F, (p, 1.0 - p))
    assert 0 <= idx < len(F)
