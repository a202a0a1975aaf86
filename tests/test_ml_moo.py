"""Tests for the ML regression stack and the NSGA-II/MCDM optimizer."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers.determinism import make_job
from helpers.reference_kernels import (
    evaluate_reference,
    fast_non_dominated_sort,
    front_ranks_matrix_peel,
    polynomial_mutation_dense,
    repair_reference,
)
from helpers.reference_cv import reference_degree_selection, whole_dataset_ridge_cv
from helpers.reference_models import (
    polynomial_transform_per_block,
    polynomial_transform_reference,
)
from helpers.reference_ridge import assert_numpy_route_matches, ridge_fit
from repro.backends.fleet import fleet_of_size
from repro.estimator import PairwiseEstimateSource
from repro.estimator.models import _select_and_fit
from repro.ml import PolynomialFeatures, PolynomialRidge, polynomial_ridge_cv, r2_score
from repro.ml.model_selection import _folds
from repro.moo import (
    NSGA2,
    Problem,
    Termination,
    crowding_by_rank,
    crowding_distance,
    exponential_crossover,
    front_ranks,
    pareto_front_mask,
    polynomial_mutation,
    pseudo_weights,
    select_by_preference,
    sorting,
    tournament_selection,
)
from repro.moo.nsga2 import _first_occurrences
from repro.scheduler import QonductorScheduler
from repro.scheduler.cycle import OptimizationTask, cycle_seed, run_optimization
from repro.scheduler.formulation import (
    SchedulingInput,
    SchedulingProblem,
    evaluate_population,
    pack_feasible,
    repair_population,
)

_settings = settings(max_examples=40, deadline=None, derandomize=True)


def _random_input(rng, n, q, density=0.7):
    """A random feasible scheduling instance (every job fits somewhere)."""
    feas = rng.random((n, q)) < density
    feas[~feas.any(axis=1), 0] = True
    return SchedulingInput(
        fidelity=rng.random((n, q)) * 0.4 + 0.6,
        exec_seconds=rng.random((n, q)) * 100 + 1,
        waiting_seconds=rng.random(q) * 50,
        feasible=feas,
    )


class TestPolynomialRidge:
    def test_ridge_shrinks_towards_zero(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 2))
        y = X @ np.array([5.0, -5.0]) + rng.normal(0, 0.1, 50)
        small = PolynomialRidge(1, alpha=1e-6).fit(X, y)
        big = PolynomialRidge(1, alpha=1e4).fit(X, y)
        assert np.linalg.norm(big.coef_) < np.linalg.norm(small.coef_)

    @pytest.mark.parametrize("constant", [False, True], ids=["varied", "constant-column"])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_fit_equals_standardize_then_ridge(self, degree, constant):
        """Against the definition: the monomials, each column less its mean
        over its standard deviation (1 for a constant column), then ridge
        with an intercept solved by Cholesky (``helpers/reference_ridge``)."""
        rng = np.random.default_rng(10 * degree + constant)
        X = rng.normal(2.0, 3.0, size=(60, 3))
        if constant:
            X[:, 1] = 4.0
        y = np.sin(X[:, 0]) + X[:, 2] ** 2 + rng.normal(0, 0.1, 60)
        model = PolynomialRidge(degree, alpha=1e-3).fit(X, y)
        expanded = polynomial_transform_reference(X, degree)
        scale = expanded.std(axis=0)
        scale[scale < 1e-12] = 1.0
        np.testing.assert_array_equal(model.mean_, expanded.mean(axis=0))
        np.testing.assert_array_equal(model.scale_, scale)
        coef, intercept = ridge_fit((expanded - model.mean_) / scale, y, 1e-3)
        np.testing.assert_allclose(model.coef_, coef, rtol=1e-7, atol=1e-9)
        assert model.intercept_ == pytest.approx(intercept, rel=1e-9)

    def test_constant_column_keeps_predictions_finite(self):
        """A constant input column expands to constant monomials; their
        scale is 1, not 0, so nothing divides by zero."""
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        model = PolynomialRidge(2, alpha=1e-3).fit(X, np.arange(10.0) ** 2)
        assert model.scale_[0] == 1.0
        assert np.all(np.isfinite(model.coef_))
        assert np.all(np.isfinite(model.predict(X)))

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_recovers_a_polynomial_target_of_its_degree(self, degree):
        """With a vanishing penalty the model reproduces, on unseen rows,
        an exact polynomial of its own degree."""
        rng = np.random.default_rng(degree)
        X = rng.normal(size=(80, 2))
        weights = rng.normal(size=polynomial_transform_reference(X, degree).shape[1])

        def target(rows):
            return polynomial_transform_reference(rows, degree) @ weights + 3.0

        model = PolynomialRidge(degree, alpha=1e-10).fit(X, target(X))
        fresh = rng.normal(size=(20, 2))
        np.testing.assert_allclose(model.predict(fresh), target(fresh), rtol=0, atol=1e-6)

    @pytest.mark.parametrize("columns", [2, 4], ids=["narrower", "wider"])
    def test_predict_refuses_another_column_count(self, columns):
        model = PolynomialRidge(2, alpha=1e-3).fit(np.eye(3), np.arange(3.0))
        with pytest.raises(ValueError, match=r"fitted on 3 columns"):
            model.predict(np.ones((2, columns)))

    def test_fit_and_predict_leave_their_inputs_alone(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        X_before, y_before = X.copy(), y.copy()
        PolynomialRidge(3, alpha=1e-3).fit(X, y).predict(X)
        assert np.array_equal(X, X_before) and np.array_equal(y, y_before)

    def test_refit_equals_a_fresh_model(self):
        """A second ``fit`` keeps nothing of the first: mean, scale,
        coefficients and intercept are those of a new model."""
        rng = np.random.default_rng(9)
        first, second = rng.normal(size=(40, 3)), rng.normal(1.0, 2.0, size=(25, 3))
        refit = PolynomialRidge(2, alpha=1e-3).fit(first, rng.normal(size=40))
        y = rng.normal(size=25)
        refit.fit(second, y)
        fresh = PolynomialRidge(2, alpha=1e-3).fit(second, y)
        for field in ("mean_", "scale_", "coef_"):
            assert getattr(refit, field).tobytes() == getattr(fresh, field).tobytes()
        assert refit.intercept_ == fresh.intercept_


    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf, -1.0, 0.0])
    def test_refuses_a_non_finite_or_non_positive_alpha(self, alpha):
        """``Ridge(alpha=inf)`` and ``Ridge(alpha=nan)`` used to be built,
        and ``nan > 0`` being false, a NaN, negative or zero alpha used to
        build an unregularized least-squares model, silently."""
        with pytest.raises(ValueError, match="alpha must be finite and > 0"):
            PolynomialRidge(2, alpha)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            PolynomialRidge(2, 0.5).predict(np.ones((2, 2)))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            PolynomialRidge(2, 0.5).fit(np.ones(5), np.ones(5))
        with pytest.raises(ValueError):
            PolynomialRidge(2, 0.5).fit(np.ones((5, 2)), np.ones(4))

    @pytest.mark.parametrize(
        "shape, y_shape, bad, message",
        [
            ((0, 3), (0,), None, r"X \(0, 3\) needs at least one row"),
            ((4,), (4,), None, r"X \(4,\) needs at least one row"),
            ((8, 3), (8, 1), None, r"X \(8, 3\) needs .* a 1-D y \(8, 1\)"),
            ((8, 3), (8,), ("X", np.nan), "X has a non-finite value"),
            ((8, 3), (8,), ("X", -np.inf), "X has a non-finite value"),
            ((8, 3), (8,), ("y", np.inf), "y has a non-finite value"),
        ],
        ids=["zero-rows", "1-D-X", "column-y", "nan-X", "inf-X", "inf-y"],
    )
    def test_fit_refuses_what_the_solver_would_not(self, shape, y_shape, bad, message):
        """numpy's solvers check nothing: zero rows used to fit (or warn
        "Mean of empty slice" and store NaN statistics), a column ``y``
        raised a TypeError deep in the fit, and a NaN or inf reached
        LAPACK."""
        X = np.arange(np.prod(shape), dtype=float).reshape(shape) % 5
        y = np.ones(y_shape)
        if bad is not None:
            (X if bad[0] == "X" else y)[3] = bad[1]
        with pytest.raises(ValueError, match=f"^PolynomialRidge: {message}"):
            PolynomialRidge(2, 0.5).fit(X, y)


class TestFeatures:
    def test_polynomial_feature_count(self):
        poly = PolynomialFeatures(degree=2)
        out = poly.fit(np.ones((4, 3))).transform(np.ones((4, 3)))
        assert out.shape[1] == 3 + 6  # 3 linear + C(3+1,2)=6 quadratic

    def test_polynomial_values(self):
        X = np.array([[2.0, 3.0]])
        out = PolynomialFeatures(degree=2).fit(X).transform(X)
        assert set(np.round(out[0], 6)) == {2.0, 3.0, 4.0, 6.0, 9.0}

    @pytest.mark.parametrize(
        "given", [np.ones((2, 6)), np.ones((2, 3)), np.ones(4)], ids=["wider", "narrower", "1-D"]
    )
    def test_transform_refuses_a_matrix_it_was_not_fitted_for(self, given):
        """Six columns used to come back as shape (2, 14) with two of them
        ignored, three as a bare IndexError, a row as "too many indices"."""
        poly = PolynomialFeatures(degree=2).fit(np.ones((5, 4)))
        with pytest.raises(ValueError, match="fitted on 4 columns") as err:
            poly.transform(given)
        assert str(given.shape) in str(err.value)

    @pytest.mark.parametrize("shape", [(4,), ()], ids=["poly-1-D", "poly-scalar"])
    def test_fit_refuses_an_input_it_cannot_fit(self, shape):
        """``PolynomialFeatures.fit`` on a 1-D array raised "tuple index
        out of range"."""
        with pytest.raises(ValueError, match="^PolynomialFeatures: ") as err:
            PolynomialFeatures(2).fit(np.ones(shape))
        assert str(shape) in str(err.value)


class TestPolynomialBitIdentity:
    """``transform`` against one left-to-right product per monomial."""

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_transform_equals_definition(self, degree):
        rng = np.random.default_rng(degree)
        poly = PolynomialFeatures(degree=degree)
        poly.fit(np.zeros((1, 5)))
        for rows in (0, 1, 8, 400):
            floats = rng.normal(0.0, 3.0, size=(rows, 5))
            integers = rng.integers(-9, 10, size=(rows, 5))
            for X in (floats, np.asfortranarray(floats), integers, floats[:, ::-1]):
                got = poly.transform(X)
                want = polynomial_transform_reference(X, degree)
                assert got.shape == want.shape and got.shape[0] == rows
                assert np.array_equal(got, want)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        rows=st.integers(300, 900),
        n_features=st.integers(10, 12),
        degree=st.integers(3, 4),
        layout=st.sampled_from(["C", "F", "reversed"]),
        seed=st.integers(0, 2**16),
    )
    def test_row_slices_equal_one_multiply_per_block(
        self, rows, n_features, degree, layout, seed
    ):
        """Shapes whose expansion holds more than 2^16 cells, so
        ``transform`` fills it in several slices of rows."""
        X = np.random.default_rng(seed).normal(0.0, 3.0, size=(rows, n_features))
        X = {"C": X, "F": np.asfortranarray(X), "reversed": X[:, ::-1]}[layout]
        poly = PolynomialFeatures(degree=degree).fit(X)
        want = polynomial_transform_per_block(X, degree)
        assert np.array_equal(poly.transform(X), want)

    def test_many_row_slices_the_last_one_partial(self):
        X = np.random.default_rng(9).normal(size=(2**16 + 5, 3))
        poly = PolynomialFeatures(degree=3).fit(X)
        assert np.array_equal(poly.transform(X), polynomial_transform_per_block(X, 3))


class TestMetricsAndCV:
    def test_r2_perfect_and_mean(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_score(y, y) == pytest.approx(1.0)
        assert r2_score(y, np.full(3, 2.0)) == pytest.approx(0.0)

    def test_folds_partition(self):
        folds = _folds(20, 4, 1)
        all_test = np.concatenate([t for _, t in folds])
        assert sorted(all_test.tolist()) == list(range(20))
        for train, test in folds:
            assert set(train) & set(test) == set()

    def test_folds_too_few_samples(self):
        with pytest.raises(ValueError):
            _folds(3, 5, 0)

    @pytest.mark.parametrize("n, k", [(20, 4), (21, 4), (23, 5), (5, 5), (7, 2)])
    def test_fold_sizes_differ_by_at_most_one(self, n, k):
        """The first ``n % k`` folds hold one row more; every training set
        is the other folds' rows."""
        folds = _folds(n, k, 3)
        assert [len(t) for _, t in folds] == [n // k + (f < n % k) for f in range(k)]
        for train, test in folds:
            assert sorted(np.concatenate([train, test]).tolist()) == list(range(n))

    def test_folds_follow_the_seed(self):
        def splits(seed):
            return [t.tolist() for _, t in _folds(30, 3, seed)]

        assert splits(4) == splits(4)
        assert splits(4) != splits(5)

    def test_r2_refuses_mismatched_or_empty_input(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            r2_score(np.ones(3), np.ones(4))
        with pytest.raises(ValueError, match="empty input"):
            r2_score(np.array([]), np.array([]))

    def test_r2_of_a_constant_target(self):
        """No variance to explain: an exact prediction scores 1, any
        other 0, rather than dividing by zero."""
        y = np.full(4, 2.5)
        assert r2_score(y, y) == 1.0
        assert r2_score(y, y + 1.0) == 0.0

    def test_cv_scores_on_learnable_problem(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(120, 2))
        y = 1.0 + 2 * X[:, 0] - X[:, 1] ** 2
        linear, quadratic = polynomial_ridge_cv(X, y, (1, 2), alpha=1e-6, n_splits=4)
        assert quadratic > 0.99 > linear


def _selection_problem(rows, n_features, constant, seed):
    """A smooth nonlinear target over differently scaled and shifted
    columns; ``constant`` makes the last column one repeated value."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(rows, n_features))
    X = base * rng.uniform(0.1, 10.0, n_features) + rng.normal(0.0, 5.0, n_features)
    if constant:
        X[:, -1] = 0.7
    y = (
        np.tanh(base @ rng.normal(size=n_features))
        + 0.3 * base[:, 0] ** 2
        + 0.1 * rng.normal(size=rows)
    )
    return X, y


_EDGE_SHAPES = [
    (40, 5, (3, 1, 2), 5, False),  # degree 3: 55 columns, 32 training rows
    (30, 4, (4,), 6, False),  # 69 columns, 25 training rows
    (90, 2, (1, 3), 3, False),  # every degree narrower than its folds
    (60, 3, (2, 2, 1), 2, True),  # repeated degree, a constant column
    (24, 5, (2, 4, 3, 1), 4, True),  # both sides of 18 training rows
]


@st.composite
def _selection_problems(draw):
    n_features = draw(st.integers(1, 5))
    X, y = _selection_problem(
        draw(st.integers(12, 90)),
        n_features,
        n_features > 1 and draw(st.booleans()),
        draw(st.integers(0, 2**16)),
    )
    return (
        X,
        y,
        tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))),
        draw(st.integers(2, 6)),
        draw(st.sampled_from([1e-3, 0.1, 1.0])),
        draw(st.integers(0, 99)),
    )


class TestDegreeSelection:
    """The estimator's K-fold degree selection against the loop that fits
    one model per degree and fold (``helpers/reference_cv.py``)."""

    @staticmethod
    def _check(X, y, degrees, n_splits, alpha, seed):
        want, best = reference_degree_selection(
            X, y, degrees, alpha=alpha, n_splits=n_splits, seed=seed
        )
        got = polynomial_ridge_cv(X, y, degrees, alpha=alpha, n_splits=n_splits, seed=seed)
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=0.0)
        assert degrees[int(np.argmax(got))] == best
        est = _select_and_fit(
            X, y, "fidelity", degrees=degrees, alpha=alpha, n_splits=n_splits, seed=seed
        )
        assert est.degree == best
        assert est.cv_r2 == got[degrees.index(best)]
        final = PolynomialRidge(best, alpha).fit(X, y)
        assert est.model.coef_.tobytes() == final.coef_.tobytes()
        assert est.model.intercept_ == final.intercept_

    @pytest.mark.parametrize("rows, n_features, degrees, n_splits, constant", _EDGE_SHAPES)
    def test_edge_shapes(self, rows, n_features, degrees, n_splits, constant):
        X, y = _selection_problem(rows, n_features, constant, seed=rows)
        self._check(X, y, degrees, n_splits, 1e-3, seed=3)

    @pytest.mark.parametrize("rows, n_features, degrees, n_splits, constant", _EDGE_SHAPES)
    def test_edge_shapes_match_the_scipy_route(self, rows, n_features, degrees, n_splits, constant):
        """LU on the leading blocks and the dual system against scipy's
        Cholesky factors (``helpers/reference_ridge.py``)."""
        X, y = _selection_problem(rows, n_features, constant, seed=rows)
        assert_numpy_route_matches(X, y, degrees=degrees, n_splits=n_splits, seed=3)

    @pytest.mark.parametrize("rows, n_features, degrees, n_splits, constant", _EDGE_SHAPES)
    def test_edge_shapes_equal_the_whole_dataset_expansion(
        self, rows, n_features, degrees, n_splits, constant
    ):
        """Expanding each fold's rows on its own moves no bit of any score
        (``helpers/reference_cv.whole_dataset_ridge_cv``)."""
        X, y = _selection_problem(rows, n_features, constant, seed=rows)
        got = polynomial_ridge_cv(X, y, degrees, alpha=1e-3, n_splits=n_splits, seed=3)
        want = whole_dataset_ridge_cv(X, y, degrees, alpha=1e-3, n_splits=n_splits, seed=3)
        assert [s.hex() for s in got.tolist()] == [s.hex() for s in want.tolist()]

    @_settings
    @given(_selection_problems())
    def test_matches_the_per_fit_loop(self, problem):
        self._check(*problem)

    @pytest.mark.parametrize("degrees", [(), (0, 1), (2, -1)])
    def test_refuses_empty_or_non_positive_degrees(self, degrees):
        """``degrees=()`` used to surface as a TypeError comparing None
        with an int inside PolynomialFeatures."""
        X, y = _selection_problem(40, 3, False, seed=0)
        with pytest.raises(ValueError, match="^runtime estimator: degrees must be"):
            _select_and_fit(X, y, "runtime", degrees=degrees, log_target=True)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["X", "y"])
    @pytest.mark.parametrize("target", ["fidelity", "runtime"])
    def test_refuses_a_non_finite_value(self, target, where, bad):
        """numpy's solvers do not check for finiteness, so a NaN or inf is
        refused once, at entry, and the error names the estimator (the
        scipy check the kernel once relied on named neither)."""
        X, y = _selection_problem(40, 3, False, seed=0)
        y = np.abs(y)
        (X if where == "X" else y)[7] = bad
        with pytest.raises(ValueError, match=f"^{target} estimator: {where} has a non-finite"):
            _select_and_fit(X, y, target, log_target=target == "runtime")

    @pytest.mark.parametrize("alpha", [0.0, -1e-3, np.nan, np.inf])
    def test_kernel_needs_a_positive_finite_alpha(self, alpha):
        X, y = _selection_problem(40, 3, False, seed=0)
        with pytest.raises(ValueError, match="alpha must be finite and > 0"):
            polynomial_ridge_cv(X, y, (1, 2), alpha=alpha)

    @pytest.mark.parametrize("n_splits", [0, 1, -1])
    def test_kernel_needs_two_folds(self, n_splits):
        """``n_splits=0`` used to raise ZeroDivisionError sizing the fold
        buffer before the folds were checked."""
        X, y = _selection_problem(40, 3, False, seed=0)
        with pytest.raises(ValueError, match="n_splits must be >= 2"):
            polynomial_ridge_cv(X, y, (1, 2), alpha=1e-3, n_splits=n_splits)


class _Biobj(Problem):
    """min (x0/u, 1 - x0/u + spread): simple convex front on integers."""

    def __init__(self, n=6, upper=50):
        super().__init__(n, 2, 0, upper)
        self.u = upper

    def evaluate(self, X):
        f1 = X[:, 0] / self.u
        rest = X[:, 1:].mean(axis=1) / self.u
        f2 = 1.0 - f1 + rest
        return np.stack([f1, f2], axis=1)


class TestSorting:
    def test_pareto_mask(self):
        F = np.array([[1, 5], [2, 2], [5, 1], [4, 4]])
        mask = pareto_front_mask(F)
        assert mask.tolist() == [True, True, True, False]

    def test_non_dominated_sort_fronts(self):
        F = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        fronts = fast_non_dominated_sort(F)
        assert [list(f) for f in fronts] == [[0], [1], [2]]

    def test_crowding_extremes_infinite(self):
        F = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
        d = crowding_distance(F)
        assert np.isinf(d[0]) and np.isinf(d[3])
        assert np.isfinite(d[1]) and np.isfinite(d[2])


class TestNSGA2:
    def test_converges_to_front(self):
        res = NSGA2(pop_size=32, seed=0).minimize(
            _Biobj(), Termination(max_generations=40)
        )
        # On the true front the rest-genes are ~0, so f1 + f2 ~ 1.
        sums = res.F.sum(axis=1)
        assert np.mean(sums) < 1.1

    def test_front_is_mutually_non_dominated(self):
        res = NSGA2(pop_size=32, seed=1).minimize(
            _Biobj(), Termination(max_generations=20)
        )
        assert pareto_front_mask(res.F).all()

    def test_pop_size_validation(self):
        with pytest.raises(ValueError):
            NSGA2(pop_size=5)

    def test_respects_bounds(self):
        res = NSGA2(pop_size=16, seed=3).minimize(
            _Biobj(), Termination(max_generations=10)
        )
        assert res.X.min() >= 0 and res.X.max() <= 50

    def test_minimize_pure_across_calls(self):
        """Same (problem, termination, seed) -> bit-identical results on
        repeated calls of the *same* optimizer instance: minimize carries
        no hidden RNG state between cycles (the parallel-engine contract)."""
        algo = NSGA2(pop_size=16, seed=7)
        a = algo.minimize(_Biobj(), Termination(max_generations=12))
        b = algo.minimize(_Biobj(), Termination(max_generations=12))
        assert np.array_equal(a.X, b.X) and np.array_equal(a.F, b.F)
        assert a.generations == b.generations
        # The constructor seed fixes the stream.
        c = NSGA2(pop_size=16, seed=99).minimize(
            _Biobj(), Termination(max_generations=12)
        )
        assert not np.array_equal(a.F, c.F) or not np.array_equal(a.X, c.X)

    def test_reused_termination_is_refused(self):
        """A Termination counts one run.  Handing a spent one to a second
        minimize used to return the initial random sample's front after
        zero generations, silently."""
        term = Termination(max_generations=10)
        NSGA2(pop_size=16, seed=0).minimize(_Biobj(), term)
        assert term.generations == 10
        with pytest.raises(ValueError, match="fresh"):
            NSGA2(pop_size=16, seed=0).minimize(_Biobj(), term)
        assert term.generations == 10  # refused before any update

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_generations": 0},
            {"max_generations": -3},
        ],
    )
    def test_termination_validates_its_limits(self, kwargs):
        """A cap below one generation is refused by name."""
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            Termination(**kwargs)

    def test_termination_counts_rows_and_stops_at_its_cap(self):
        """Each update counts one generation and its rows; the run stops
        on the ``max_generations``-th update and not one before."""
        term = Termination(max_generations=3)
        stops = []
        for rows in (5, 4, 4):
            term.update(np.zeros((rows, 2)))
            stops.append(term.should_stop())
        assert stops == [False, False, True]
        assert (term.generations, term.evaluations) == (3, 13)

    @pytest.mark.parametrize("cap", [1, 2, 7])
    def test_minimize_runs_exactly_its_cap(self, cap):
        """A cap of one keeps the initial sample's front; every cap is
        run to the generation, ``pop_size`` genomes each."""
        term = Termination(max_generations=cap)
        res = NSGA2(pop_size=16, seed=5).minimize(_Biobj(), term)
        assert (res.generations, res.evaluations) == (cap, 16 * cap)
        assert (term.generations, term.evaluations) == (cap, 16 * cap)
        assert len(res.F) >= 1 and pareto_front_mask(res.F).all()

    def test_truncate_reuses_selection_fronts_bit_identical(self):
        """The truncation over survivors (one sort, crowding only for
        the fronts that stay) must match the recompute-from-scratch
        version bit for bit, across seeds, generations and shapes — and
        the runs must reach each of its three outcomes."""
        seen = set()

        class ReferenceNSGA2(NSGA2):
            def _truncate(self, X, F):
                fronts = fast_non_dominated_sort(F)
                chosen = []
                count = 0
                for front in fronts:
                    if count + len(front) <= self.pop_size:
                        chosen.append(front)
                        count += len(front)
                        if count == self.pop_size:
                            seen.add("exact fill")
                            break
                    else:
                        seen.add("split later" if chosen else "first front overfull")
                        crowd = crowding_distance(F[front])
                        order = np.argsort(-crowd, kind="stable")
                        chosen.append(front[order[: self.pop_size - count]])
                        count = self.pop_size
                        break
                idx = np.concatenate(chosen)
                Xs, Fs = X[idx], F[idx]
                rank, crowd = self._rank_and_crowd(Fs)
                return Xs, Fs, rank, crowd

        def scheduling(n, q):
            def build(seed):
                data = _random_input(np.random.default_rng(1000 * n + q + seed), n, q)
                return SchedulingProblem(data, seed=seed)

            return build

        for build, pop, seeds, generations in (
            (lambda seed: _Biobj(), 16, range(5), 15),
            (scheduling(15, 4), 64, range(3), 20),
            (scheduling(54, 4), 64, range(3), 20),
        ):
            for seed in seeds:
                fast = NSGA2(pop_size=pop, seed=seed).minimize(
                    build(seed), Termination(max_generations=generations)
                )
                ref = ReferenceNSGA2(pop_size=pop, seed=seed).minimize(
                    build(seed), Termination(max_generations=generations)
                )
                assert np.array_equal(fast.X, ref.X)
                assert np.array_equal(fast.F, ref.F)
                assert fast.generations == ref.generations
                assert fast.evaluations == ref.evaluations
        assert seen == {"first front overfull", "split later", "exact fill"}

    @_settings
    @given(
        n=st.integers(1, 40),
        m=st.sampled_from([1, 2, 2, 3]),
        levels=st.integers(1, 5),
        seed=st.integers(0, 2**31),
    )
    def test_front_dedup_matches_np_unique_property(self, n, m, levels, seed):
        """The final front's stable lexsort + neighbour comparison picks
        the rows ``np.unique(axis=0, return_index=True)`` picks, on grids
        where duplicate rows and signed zeros are the common case."""
        rng = np.random.default_rng(seed)
        F = rng.integers(0, levels, (n, m)).astype(float)
        F[rng.random((n, m)) < 0.2] *= -1.0  # -0.0 == 0.0, -1.0 != 1.0
        _, unique_idx = np.unique(F, axis=0, return_index=True)
        assert np.array_equal(_first_occurrences(F), np.sort(unique_idx))


class TestMCDM:
    def test_pseudo_weights_rows_sum_to_one(self):
        F = np.array([[0.0, 10.0], [5.0, 5.0], [10.0, 0.0]])
        w = pseudo_weights(F)
        assert np.allclose(w.sum(axis=1), 1.0)

    def test_extreme_selection(self):
        F = np.array([[0.0, 10.0], [5.0, 5.0], [10.0, 0.0]])
        # Strong priority on objective 0 picks the solution minimizing it.
        idx = select_by_preference(F, (0.99, 0.01))
        assert idx == 0
        idx = select_by_preference(F, (0.01, 0.99))
        assert idx == 2

    def test_balanced_picks_middle(self):
        F = np.array([[0.0, 10.0], [5.0, 5.0], [10.0, 0.0]])
        assert select_by_preference(F, "balanced") == 1

    def test_named_preferences(self):
        F = np.array([[0.0, 1.0], [1.0, 0.0]])
        for name in ("jct", "balanced", "fidelity"):
            select_by_preference(F, name)
        with pytest.raises(KeyError):
            select_by_preference(F, "nope")

    def test_preference_validation(self):
        F = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            select_by_preference(F, (0.9, 0.9))
        with pytest.raises(ValueError):
            select_by_preference(F, (1.0,))

    def test_degenerate_objective(self):
        F = np.array([[1.0, 5.0], [2.0, 5.0]])
        idx = select_by_preference(F, "balanced")
        assert idx in (0, 1)


class TestVectorizedSorting:
    """front_ranks / crowding_by_rank vs the per-front reference loops."""

    def test_front_ranks_match_peeled_fronts(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 60))
            F = rng.random((n, 2))
            if seed % 3 == 0 and n > 3:  # duplicates exercise ties
                F[: n // 2] = F[n - n // 2 :][::-1]
            rank = front_ranks(F)
            for r, front in enumerate(fast_non_dominated_sort(F)):
                assert np.all(rank[front] == r)
            assert rank.min() == 0

    def test_crowding_by_rank_matches_per_front(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 60))
            m = 2 if seed % 2 else 3
            F = rng.random((n, m))
            rank = front_ranks(F)
            crowd = crowding_by_rank(F, rank)
            for front in fast_non_dominated_sort(F):
                assert np.array_equal(
                    crowd[front], crowding_distance(F[front])
                )


def _oracle_ranks(F):
    rank = np.full(len(F), -1, dtype=np.int64)
    for r, front in enumerate(fast_non_dominated_sort(F)):
        rank[front] = r
    return rank


def _assert_sorting_matches_oracle(F):
    rank = front_ranks(F)
    assert rank.dtype == np.int64
    assert np.array_equal(rank, _oracle_ranks(F))
    assert np.array_equal(rank, front_ranks_matrix_peel(F))
    crowd = crowding_by_rank(F, rank)
    for front in fast_non_dominated_sort(F):
        assert np.array_equal(crowd[front], crowding_distance(F[front]))


#: Where a sort-based peel and a matrix peel disagree first.
_TIE_CASES = {
    "n0": np.empty((0, 2)),
    "n0_three_objectives": np.empty((0, 3)),
    "n1": np.array([[0.5, 0.5]]),
    "n2_dominated": np.array([[1.0, 1.0], [0.0, 0.0]]),
    "n2_tradeoff": np.array([[1.0, 0.0], [0.0, 1.0]]),
    "n2_duplicate": np.array([[0.3, 0.7], [0.3, 0.7]]),
    "all_duplicates": np.tile([[2.0, 3.0]], (7, 1)),
    "duplicates_across_fronts": np.array(
        [[1.0, 1.0], [0.0, 2.0], [1.0, 1.0], [2.0, 2.0], [0.0, 2.0],
         [2.0, 2.0], [0.0, 0.0], [1.0, 1.0]]
    ),
    "equal_f0": np.array([[1.0, 3.0], [1.0, 1.0], [1.0, 2.0], [1.0, 1.0]]),
    "equal_f1": np.array([[3.0, 1.0], [1.0, 1.0], [2.0, 1.0], [1.0, 1.0]]),
    "equal_f1_as_tail": np.array([[0.0, 1.0], [1.0, 1.0], [1.0, 0.0]]),
    "signed_zero": np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0]]),
    "integer_dtype": np.array([[1, 5], [2, 2], [5, 1], [4, 4], [2, 2]]),
    "grid": np.array(
        [[i, j] for i in range(5) for j in range(5)], dtype=float
    )[::-1],
    "three_objectives": np.array(
        [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [0.0, 3.0, 3.0], [2.0, 2.0, 4.0],
         [1.0, 1.0, 1.0], [3.0, 3.0, 3.0]]
    ),
}


class TestTwoObjectiveSweep:
    """``front_ranks`` on two objectives is a sort and a sweep; the cases
    that separate it from the matrix peel are ties, and the oracle is the
    independent textbook peel."""

    @pytest.mark.parametrize("name", _TIE_CASES)
    def test_tie_cases_match_oracle(self, name):
        _assert_sorting_matches_oracle(_TIE_CASES[name])

    def test_infinite_objectives_rank_like_oracle(self):
        # Ranks only: crowding's span is inf - inf on such a front.
        F = np.array(
            [[np.inf, 0.0], [0.0, np.inf], [np.inf, np.inf], [-np.inf, 5.0]]
        )
        assert np.array_equal(front_ranks(F), _oracle_ranks(F))

    @_settings
    @given(
        n=st.integers(0, 40),
        m=st.sampled_from([2, 2, 3]),
        levels=st.integers(1, 6),
        seed=st.integers(0, 2**31),
    )
    def test_tied_grids_match_oracle_property(self, n, m, levels, seed):
        """Integer-valued grids: few distinct levels, so duplicate rows,
        constant columns and equal coordinates are the common case."""
        F = np.random.default_rng(seed).integers(0, levels, (n, m)).astype(float)
        _assert_sorting_matches_oracle(F)

    @_settings
    @given(n=st.integers(0, 48), seed=st.integers(0, 2**31))
    def test_continuous_with_repeats_match_oracle_property(self, n, seed):
        rng = np.random.default_rng(seed)
        F = rng.random((n, 2))
        if n > 3:  # revisit earlier rows and earlier coordinates
            F[rng.integers(0, n, n // 3)] = F[rng.integers(0, n, n // 3)]
            F[rng.integers(0, n, n // 4), 0] = F[rng.integers(0, n, n // 4), 0]
        _assert_sorting_matches_oracle(F)

    def test_dispatch_is_on_the_objective_count(self, monkeypatch):
        """Two objectives never build the ``(n, n)`` matrix; any other
        count still takes the matrix path."""
        calls = []
        real = sorting.dominates_matrix

        def counting(F):
            calls.append(F.shape)
            return real(F)

        monkeypatch.setattr(sorting, "dominates_matrix", counting)
        rng = np.random.default_rng(0)
        front_ranks(rng.random((30, 2)))
        assert calls == []
        front_ranks(rng.random((30, 3)))
        front_ranks(rng.random((30, 1)))
        assert calls == [(30, 3), (30, 1)]

    def test_run_optimization_builds_no_domination_matrix(self, monkeypatch):
        def forbidden(F):
            raise AssertionError("dominates_matrix called on the cycle path")

        monkeypatch.setattr(sorting, "dominates_matrix", forbidden)
        result = run_optimization(_pinned_task(15, 4))
        assert result.generations == 20


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


def _pcg_state(gen):
    return gen.bit_generator.state["state"]["state"]


def _pinned_task(n, q):
    data = _random_input(np.random.default_rng(1000 * n + q), n, q)
    return OptimizationTask(
        data, pop_size=64, max_generations=20, base_seed=3, shard_id=1,
        cycle_index=n,
    )


def _fingerprint(result, *generators):
    return {
        "X": (result.X.shape, _sha(result.X)),
        "F": (result.F.shape, _sha(result.F)),
        "generations": result.generations,
        "evaluations": result.evaluations,
        "streams": [_pcg_state(g) for g in generators],
    }


def _minimize_biobj():
    # default_rng hands a Generator back unchanged, so the stream
    # minimize draws from stays observable after the run.
    ga = np.random.default_rng(11)
    result = NSGA2(pop_size=32, seed=ga).minimize(
        _Biobj(), Termination(max_generations=25)
    )
    return _fingerprint(result, ga)


def _minimize_task(n, q):
    """``run_optimization`` spelled out, keeping hold of both streams."""
    task = _pinned_task(n, q)
    repair_seed, ga_seed = cycle_seed(
        task.base_seed, task.shard_id, task.cycle_index
    ).spawn(2)
    problem = SchedulingProblem(task.data, seed=repair_seed)
    ga = np.random.default_rng(ga_seed)
    result = NSGA2(pop_size=task.pop_size, seed=ga).minimize(
        problem, Termination(max_generations=task.max_generations)
    )
    worker = run_optimization(task)
    assert np.array_equal(worker.X, result.X)
    assert np.array_equal(worker.F, result.F)
    return _fingerprint(result, ga, problem._rng)


# Recorded with the parent commit's src/ on the path (PR 16, f3fdbd9).
PINNED_BIOBJ = {
    "X": ((32, 6), "4031eb8b35d635ec"),
    "F": ((32, 2), "8280f434f13acc81"),
    "generations": 25,
    "evaluations": 800,
    "streams": [82592498218651722049073646215357659638],
}
PINNED_15X4 = {
    "X": ((24, 15), "e610ea8201c321f2"),
    "F": ((24, 2), "304d84831f06eebc"),
    "generations": 20,
    "evaluations": 1280,
    "streams": [
        11749359007799572909510146715603464823,
        254578596224317919636870181495036409114,
    ],
}
PINNED_54X4 = {
    "X": ((25, 54), "89abf4ae67ab8365"),
    "F": ((25, 2), "c2b14cd0a8fbd807"),
    "generations": 20,
    "evaluations": 1280,
    "streams": [
        108218766922318828509666953311699419024,
        200436416426640913035265678079099329430,
    ],
}


class TestMinimizePinned:
    """``NSGA2.minimize`` against values recorded at the commit before
    the two-objective sweep and the single parent+child buffer (PR 16,
    f3fdbd9): front, counters and the position of every random stream
    after the run."""

    def test_biobj(self):
        assert _minimize_biobj() == PINNED_BIOBJ

    def test_scheduling_15x4(self):
        assert _minimize_task(15, 4) == PINNED_15X4

    def test_scheduling_54x4(self):
        assert _minimize_task(54, 4) == PINNED_54X4


def _stream(gen):
    """Everything of a PCG64 that the next draw depends on, the buffered
    32-bit half-word included."""
    state = gen.bit_generator.state
    return (state["state"]["state"], state["has_uint32"], state["uinteger"])


def _one_generation_of_variation(n, q):
    """Tournament, crossover, mutation once, on a fixed population."""
    rng = np.random.default_rng(100 * n + q)
    X = rng.integers(0, q, size=(64, n))
    rank = rng.integers(0, 5, 64)
    crowd = rng.random(64)
    crowd[rng.integers(0, 64, 8)] = np.inf
    problem = Problem(n, 2, 0, q - 1)
    lower, upper = problem.lower.astype(float), problem.upper.astype(float)
    ga = np.random.default_rng(7)
    parents_idx = tournament_selection(rank, crowd, 64, ga)
    scratch = X[parents_idx].astype(float)
    exponential_crossover(scratch, lower, upper, ga)
    crossed = scratch.astype(np.int64)
    polynomial_mutation(scratch, lower, upper, problem.span, ga)
    return {
        "parents_idx": _sha(parents_idx),
        "crossed": _sha(crossed),
        "mutated": _sha(scratch.astype(np.int64)),
        "stream": _stream(ga),
    }


# Recorded with the parent commit's operators (PR 18, efea0e2): two
# tournament draws, crossover and mutation each through their own
# int -> float -> int round trip, mutation dense.
PINNED_OPERATORS = {
    (15, 4): {
        "parents_idx": "d82b1e7cc506e2bd",
        "crossed": "ec73119cb47435e4",
        "mutated": "54b35ee7b1e4808e",
        "stream": (64413189810321617873938805231608045126, 0, 647629610),
    },
    (54, 4): {
        "parents_idx": "90df589c91385c46",
        "crossed": "086573a4a4e48101",
        "mutated": "a874d7d3cc7214f8",
        "stream": (85302417815386990098063495310064451384, 0, 647629610),
    },
    (100, 8): {
        "parents_idx": "a693d78002037288",
        "crossed": "cb3d4466842e8538",
        "mutated": "297d1f8ef88a892e",
        "stream": (317130664824981641560832974030653624943, 0, 647629610),
    },
    # span == 0 (stored as 1) and mutation rate 1.0.
    (1, 1): {
        "parents_idx": "9b5843698a31b27a",
        "crossed": "076a27c79e5ace2a",
        "mutated": "076a27c79e5ace2a",
        "stream": (52607862988240293192407683031311083320, 0, 647629610),
    },
}


class _ScriptedRandom:
    """Stands in for a ``Generator`` whose ``random`` blocks are given."""

    def __init__(self, *blocks):
        self._blocks = list(blocks)

    def random(self, shape):
        block = self._blocks.pop(0)
        assert block.shape == tuple(shape)
        return block.copy()


class TestVariationOperators:
    """Selection, crossover and mutation on the one float scratch against
    what the parent's operators produced, stage by stage."""

    @pytest.mark.parametrize("shape", PINNED_OPERATORS)
    def test_one_generation_pinned(self, shape):
        assert _one_generation_of_variation(*shape) == PINNED_OPERATORS[shape]

    def test_tournament_single_draw_is_the_two_draw_stream(self):
        for seed in range(60):
            for n, k in ((64, 64), (64, 33), (7, 5), (1, 4)):
                one, two = np.random.default_rng(seed), np.random.default_rng(seed)
                rank = np.arange(n) % 3
                crowd = np.random.default_rng(seed + 1).random(n)
                a, b = two.integers(0, n, k), two.integers(0, n, k)
                wins = (rank[a] < rank[b]) | (
                    (rank[a] == rank[b]) & (crowd[a] >= crowd[b])
                )
                assert np.array_equal(
                    tournament_selection(rank, crowd, k, one), np.where(wins, a, b)
                )
                assert _stream(one) == _stream(two)
                assert one.integers(0, 1000, 3).tolist() == two.integers(0, 1000, 3).tolist()

    @_settings
    @given(
        pop=st.integers(1, 12),
        n=st.integers(1, 24),
        upper=st.sampled_from([0, 1, 3, 7, 50, 2**52]),
        hits=st.sampled_from(["none", "one", "all", "some"]),
        seed=st.integers(0, 2**31),
    )
    def test_sparse_mutation_equals_dense_property(self, pop, n, upper, hits, seed):
        """``delta`` computed only where a gene mutates gives every
        element the dense formula gives it — ``u`` through 0, 0.5 exactly
        and the last float below 1, and zero, one and all genes hit."""
        rng = np.random.default_rng(seed)
        problem = Problem(n, 2, -upper if upper > 50 else 0, upper)
        X = rng.integers(problem.lower, problem.upper + 1, size=(pop, n))
        u = rng.random((pop, n))
        edges = [0.0, 0.5, np.nextafter(0.5, 0), np.nextafter(0.5, 1), np.nextafter(1, 0)]
        u[rng.random((pop, n)) < 0.4] = rng.choice(edges)
        u.flat[: len(edges)] = edges[: u.size]
        gate = {  # compared with 1 / n: 0.0 hits, 1.0 never does
            "none": np.ones((pop, n)),
            "all": np.zeros((pop, n)),
            "some": rng.random((pop, n)),
        }.get(hits)
        if gate is None:
            gate = np.ones((pop, n))
            gate.flat[rng.integers(pop * n)] = 0.0
        dense = polynomial_mutation_dense(
            X, problem.lower, problem.upper, _ScriptedRandom(u, gate)
        )
        scratch = X.astype(float)
        polynomial_mutation(
            scratch,
            problem.lower.astype(float),
            problem.upper.astype(float),
            problem.span,
            _ScriptedRandom(u, gate),
        )
        assert np.array_equal(scratch.astype(np.int64), dense)
        assert np.array_equal(scratch, dense)  # integer-valued, in the box


def _edge_task(fidelity, exec_seconds, waiting, feasible=None, pop_size=64):
    fidelity = np.asarray(fidelity, dtype=float)
    data = SchedulingInput(
        fidelity=fidelity,
        exec_seconds=np.asarray(exec_seconds, dtype=float),
        waiting_seconds=np.asarray(waiting, dtype=float),
        feasible=(
            np.ones(fidelity.shape, dtype=bool)
            if feasible is None
            else np.asarray(feasible, dtype=bool)
        ),
    )
    return OptimizationTask(
        data, pop_size=pop_size, max_generations=20, base_seed=3, shard_id=0,
        cycle_index=1,
    )


#: name -> (task, generations run).  Every shape runs its full cap of 20,
#: the one- and four-genome search spaces of the first two included.
_EDGE_TASKS = {
    "1x1": (_edge_task([[0.9]], [[10.0]], [5.0]), 20),
    "2x2": (
        _edge_task([[0.9, 0.8], [0.7, 0.95]], [[10.0, 20.0], [30.0, 5.0]], [5.0, 0.0]),
        20,
    ),
    "one_job_four_qpus": (
        _edge_task([[0.9, 0.8, 0.7, 0.95]], [[10.0, 20.0, 30.0, 5.0]], [5, 0, 1, 40]),
        20,
    ),
    "pop_larger_than_search_space": (
        _edge_task(
            [[0.9, 0.8], [0.7, 0.95], [0.85, 0.6]],
            [[10.0, 20.0], [30.0, 5.0], [7.0, 9.0]],
            [5.0, 0.0],
        ),
        20,
    ),
    "one_feasible_qpu_per_job": (
        _edge_task(
            np.linspace(0.6, 0.99, 24).reshape(6, 4),
            np.linspace(1.0, 90.0, 24).reshape(6, 4),
            [0.0, 10.0, 20.0, 30.0],
            feasible=np.eye(4, dtype=bool)[[0, 1, 2, 3, 0, 1]],
        ),
        20,
    ),
}


class TestEdgeShapes:
    """ROADMAP direction 5's degenerate cycles through the real worker
    function."""

    @pytest.mark.parametrize("name", _EDGE_TASKS)
    def test_run_optimization_edge_shape(self, name):
        task, generations = _EDGE_TASKS[name]
        result = run_optimization(task)
        assert result.generations == generations
        assert result.evaluations == generations * task.pop_size
        assert len(result.F) >= 1 and pareto_front_mask(result.F).all()
        assert len({tuple(row) for row in result.F.tolist()}) == len(result.F)
        assert task.data.feasible[
            np.arange(task.data.num_jobs)[None, :], result.X
        ].all()
        assert np.array_equal(
            result.F, evaluate_reference(task.data, result.X)
        )


class TestGenerationCap:
    """A default scheduler's cycle runs NSGA-II on 32 genomes for its
    whole generation cap, however small the search space."""

    @staticmethod
    def _default_cycle(data):
        """The task a default ``QonductorScheduler`` builds over ``data``'s
        estimates, through ``begin_cycle``."""
        jobs = [make_job(2) for _ in range(data.num_jobs)]
        qpus = fleet_of_size(data.num_qpus, seed=7)
        rows = {id(job): i for i, job in enumerate(jobs)}
        cols = {qpu.name: k for k, qpu in enumerate(qpus)}

        @PairwiseEstimateSource
        def pinned(job, qpu):
            i, k = rows[id(job)], cols[qpu.name]
            return data.fidelity[i, k], data.exec_seconds[i, k]

        scheduler = QonductorScheduler(pinned)
        task = scheduler.begin_cycle(jobs, qpus).task
        assert np.array_equal(task.data.fidelity, data.fidelity)
        assert np.array_equal(task.data.exec_seconds, data.exec_seconds)
        return scheduler, task

    @pytest.mark.parametrize(
        "data",
        [
            _random_input(np.random.default_rng(15_004), 15, 4, density=1.0),
            _EDGE_TASKS["1x1"][0].data,
        ],
        ids=["15x4", "1x1"],
    )
    def test_default_cycle_runs_the_cap_on_32_genomes(self, data):
        scheduler, task = self._default_cycle(data)
        result = run_optimization(task)
        assert result.generations == scheduler.max_generations
        assert result.evaluations == 32 * scheduler.max_generations


class TestSchedulingInputValidation:
    def test_non_finite_estimates_are_refused_by_name_and_cell(self):
        """A NaN fidelity and an inf runtime used to run 20 generations,
        emit two ``RuntimeWarning``s from the crowding sweep and return a
        ten-point "front"."""
        rng = np.random.default_rng(0)
        good = _random_input(rng, 8, 4, density=1.0)

        def build(**changed):
            fields = {
                name: getattr(good, name).copy()
                for name in ("fidelity", "exec_seconds", "waiting_seconds", "feasible")
            }
            for name, (at, value) in changed.items():
                fields[name][at] = value
            return SchedulingInput(**fields)

        with pytest.raises(ValueError, match=r"fidelity\[3, 2\] = nan is not finite"):
            build(fidelity=((3, 2), np.nan), exec_seconds=((5, 1), np.inf))
        with pytest.raises(ValueError, match=r"exec_seconds\[5, 1\] = inf is not finite"):
            build(exec_seconds=((5, 1), np.inf))
        with pytest.raises(ValueError, match=r"waiting_seconds\[2\] = -inf is not finite"):
            build(waiting_seconds=((2,), -np.inf))
        build()  # and the untouched instance is accepted


class TestPopulationKernels:
    """The flat evaluate/repair kernels are bit-identical to the scalar
    per-individual reference loops — values AND consumed RNG stream."""

    def test_pack_feasible_matches_where(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            data = _random_input(
                rng, int(rng.integers(1, 40)), int(rng.integers(2, 12))
            )
            flat, offsets, counts = pack_feasible(data.feasible)
            assert flat.shape == (int(data.feasible.sum()),)
            for i in range(data.num_jobs):
                assert np.array_equal(
                    flat[offsets[i] : offsets[i] + counts[i]],
                    np.where(data.feasible[i])[0],
                )

    def test_evaluate_matches_reference_randomized(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 120))
            q = int(rng.integers(2, 24))
            pop = int(rng.integers(1, 96))
            data = _random_input(rng, n, q)
            X = rng.integers(0, q, size=(pop, n))
            assert np.array_equal(
                evaluate_population(data, X), evaluate_reference(data, X)
            )

    def test_repair_matches_reference_and_stream(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 80))
            q = int(rng.integers(2, 16))
            pop = int(rng.integers(1, 48))
            data = _random_input(rng, n, q, density=0.5)
            X = rng.integers(0, q, size=(pop, n))
            r_kernel = np.random.default_rng(seed + 1)
            r_ref = np.random.default_rng(seed + 1)
            out_kernel = repair_population(data, X.copy(), r_kernel)
            out_ref = repair_reference(data, X.copy(), r_ref)
            assert np.array_equal(out_kernel, out_ref)
            assert data.feasible[
                np.arange(n)[None, :], out_kernel
            ].all()
            # Identical bit-stream position afterwards: batched draws
            # consumed exactly what the scalar loop would have.
            assert (
                r_kernel.bit_generator.state == r_ref.bit_generator.state
            )

    @_settings
    @given(
        pop=st.integers(1, 24),
        n=st.integers(1, 32),
        q=st.integers(2, 9),
        density=st.floats(0.15, 1.0),
        seed=st.integers(0, 2**31),
    )
    def test_kernels_equal_references_property(
        self, pop, n, q, density, seed
    ):
        """Property form: any (pop, width, feasibility-mask) instance —
        flat kernels == scalar references, bit for bit."""
        rng = np.random.default_rng(seed)
        data = _random_input(rng, n, q, density=density)
        X = rng.integers(0, q, size=(pop, n))
        assert np.array_equal(
            evaluate_population(data, X), evaluate_reference(data, X)
        )
        r1 = np.random.default_rng(seed ^ 0x5EED)
        r2 = np.random.default_rng(seed ^ 0x5EED)
        assert np.array_equal(
            repair_population(data, X.copy(), r1),
            repair_reference(data, X.copy(), r2),
        )
        assert r1.bit_generator.state == r2.bit_generator.state

    def test_all_feasible_repair_clips_and_draws_nothing(self):
        """Every cell feasible: ``SchedulingProblem.repair`` is the
        reference's values with the repair stream left where it was."""
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n, q = int(rng.integers(1, 40)), int(rng.integers(1, 9))
            data = _random_input(rng, n, q, density=1.0)
            assert data.feasible.all()
            X = rng.integers(-2, q + 2, size=(16, n))  # clipping included
            problem = SchedulingProblem(data, seed=seed)
            before = _stream(problem._rng)
            reference_rng = np.random.default_rng(seed)
            assert np.array_equal(
                problem.repair(X), repair_population(data, X, reference_rng)
            )
            assert _stream(problem._rng) == before == _stream(reference_rng)

    def test_one_infeasible_cell_repairs_like_the_reference(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            # q >= 3: the job keeps two options, so a repair costs bits.
            n, q = int(rng.integers(2, 40)), int(rng.integers(3, 9))
            data = _random_input(rng, n, q, density=1.0)
            data.feasible[rng.integers(n), rng.integers(q)] = False
            X = rng.integers(0, q, size=(64, n))
            problem = SchedulingProblem(data, seed=seed)
            reference_rng = np.random.default_rng(seed)
            for _ in range(3):  # the streams stay in step call after call
                assert np.array_equal(
                    problem.repair(X), repair_reference(data, X.copy(), reference_rng)
                )
                assert _stream(problem._rng) == _stream(reference_rng)
            assert _stream(problem._rng) != _stream(np.random.default_rng(seed))
