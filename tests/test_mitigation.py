import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from bbgky_zne.errors import IllPosedFitError
from bbgky_zne.hierarchy import BbgkyEquation, HierarchySubset
from bbgky_zne.mitigation import (
    MitigationProblem,
    ProblemLayout,
    assemble,
    bernstein_deriv_weight,
    bernstein_value,
    error_norm,
    extrapolation_covariance,
    measurement_variances,
    observable_covariance,
    observable_series,
    propagate_std,
    run_mitigation,
    solve,
    zne_baseline,
)
from bbgky_zne.pauli import ObservableCombination, PauliString
from bbgky_zne.simulator import MeasurementSet
from conftest import random_measurements, sampled_derivative
from oracles import (
    bernstein_fit_derivative,
    exact_solution_operator,
    normal_equation_solve,
    paper_form_solve,
)


def test_bernstein_partition_of_unity(rng):
    for degree in (1, 2, 5, 12):
        for x in rng.random(5):
            total = sum(bernstein_value(s, degree, x) for s in range(degree + 1))
            assert total == pytest.approx(1.0, abs=1e-12)


def test_bernstein_endpoint_values():
    assert bernstein_value(0, 4, 0.0) == 1.0
    assert bernstein_value(4, 4, 1.0) == 1.0
    assert bernstein_value(2, 4, 0.0) == 0.0


def test_deriv_weight_closed_forms_degree_two():
    dt = 0.5
    for x in (0.0, 0.3, 0.5, 1.0):
        assert bernstein_deriv_weight(0, 2, x, dt) == pytest.approx(-(1 - x) / dt)
        assert bernstein_deriv_weight(1, 2, x, dt) == pytest.approx((1 - 2 * x) / dt)
        assert bernstein_deriv_weight(2, 2, x, dt) == pytest.approx(x / dt)


def test_deriv_weights_sum_to_zero(rng):
    # the derivative of a constant fit vanishes everywhere
    for degree in (2, 7):
        for x in rng.random(4):
            total = sum(
                bernstein_deriv_weight(s, degree, x, 0.2) for s in range(degree + 1)
            )
            assert total == pytest.approx(0.0, abs=1e-11)


def test_basis_derivative_matches_central_difference(rng):
    degree = 9
    samples = rng.uniform(-1.0, 1.0, size=degree + 1)
    for x in (0.2, 0.5, 0.77):
        ours = sampled_derivative(samples, x, 1.8 / degree)
        ref = bernstein_fit_derivative(samples, x, 1.8)
        assert ours == pytest.approx(ref, abs=1e-5)


def test_basis_differentiates_affine_exactly(rng):
    degree = 11
    horizon = 2.2
    dt = horizon / degree
    a, b = 0.3, -0.7
    times = np.arange(degree + 1) * dt
    samples = a + b * times
    for x in (0.0, 0.31, 1.0):
        assert sampled_derivative(samples, x, dt) == pytest.approx(b, abs=1e-12)


def test_layout_shape_identity(rng):
    for _ in range(20):
        n_corr = int(rng.integers(1, 6))
        n_steps = int(rng.integers(1, 9))
        n_levels = int(rng.integers(1, 5))
        degree = int(rng.integers(0, 4))
        n_eq = int(rng.integers(0, 4))
        layout = ProblemLayout(n_corr, n_steps, n_levels, degree, n_eq)
        assert layout.n_rows == n_levels * n_steps * n_corr + n_eq * (n_steps + 1)
        assert layout.n_cols == (degree + 1) * n_steps * n_corr
        for q in range(n_corr):
            for s in range(1, n_steps + 1):
                expected = (q * n_steps + s - 1) * (degree + 1) + degree
                assert layout.extraction_index(q, s) == expected


def test_layout_rows_partition(rng):
    # the paper-form view: one Vandermonde row per measured point, touching
    # only its own block's columns, then constraint rows that touch only the
    # extraction columns
    base = random_measurements(rng, n_correlators=2, n_steps=3, n_levels=2)
    ms = MeasurementSet(toy_subset().correlators, base.values, base.eps, base.initial, None)
    problem = assemble(ms, toy_subset(), 1, 0.5)
    layout = problem.layout
    n_data = ms.values.size
    assert problem.matrix.shape == (layout.n_rows, layout.n_cols)
    assert layout.n_rows == n_data + 2 * 4
    for row in range(n_data):
        block = row // layout.n_levels
        cols = np.flatnonzero(problem.matrix[row])
        assert set(cols) <= {block * 2, block * 2 + 1}
        assert problem.target[row] == ms.values.ravel()[row]
    extraction = set(layout.extraction_indices().ravel())
    assert set(np.flatnonzero(problem.matrix[n_data:].any(axis=0))) <= extraction
    np.testing.assert_array_equal(
        problem.matrix[n_data:][:, sorted(extraction)], problem.constraints
    )


def toy_subset() -> HierarchySubset:
    z1, x1 = PauliString.parse("Z1"), PauliString.parse("X1")
    equations = (
        BbgkyEquation(z1, ((-2.0, x1),)),
        BbgkyEquation(x1, ((0.5, z1),)),
    )
    return HierarchySubset(equations, (z1, x1), 2, 0)


def toy_measurements() -> MeasurementSet:
    z1, x1 = PauliString.parse("Z1"), PauliString.parse("X1")
    eps = np.array([[1.0, 3.0], [1.0, 2.0]])
    values = np.array(
        [
            [[0.9, 0.7], [0.8, 0.5]],
            [[0.1, 0.3], [0.2, 0.4]],
        ]
    )
    initial = np.array([1.0, 0.0])
    return MeasurementSet((z1, x1), values, eps, initial, None)


def test_assemble_unconstrained_is_block_diagonal():
    ms = toy_measurements()
    problem = assemble(ms, None, 1, 0.5)
    layout = problem.layout
    assert layout.n_equations == 0
    assert problem.matrix.shape == (8, 8)
    expected = np.zeros((8, 8))
    for q in range(2):
        for s in (1, 2):
            row = col = (q * 2 + s - 1) * 2
            expected[row : row + 2, col] = ms.eps[s - 1]
            expected[row : row + 2, col + 1] = 1.0
    np.testing.assert_array_equal(problem.matrix, expected)
    assert problem.target[0] == 0.9
    assert problem.target[1] == 0.7


def test_assemble_rejects_mismatched_prefix():
    ms = toy_measurements()
    z2 = PauliString.parse("Z2")
    subset = HierarchySubset(
        (BbgkyEquation(z2, ()),), (z2,), 1, 0
    )
    with pytest.raises(ValueError):
        assemble(ms, subset, 1, 0.5)


def test_assemble_validation():
    ms = toy_measurements()
    with pytest.raises(ValueError):
        assemble(ms, None, -1, 0.5)
    with pytest.raises(ValueError):
        assemble(ms, None, 1, 0.0)
    for g_weight in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="g_weight"):
            assemble(ms, None, 1, 0.5, g_weight=g_weight)


def test_unconstrained_solve_matches_per_slice_fits(rng):
    # the paper-form oracle solves the block-diagonal problem as one pinv
    for _ in range(20):
        ms = random_measurements(rng)
        problem = assemble(ms, None, 2, 0.25)
        joint = solve(problem).extrapolations
        oracle, _ = paper_form_solve(problem, ms)
        np.testing.assert_allclose(joint, oracle, atol=1e-9)
        np.testing.assert_array_equal(zne_baseline(ms, 2), joint)


def random_subset(rng: np.random.Generator, correlators, n_equations: int) -> HierarchySubset:
    """Equations with random coefficients over a prefix of ``correlators``."""
    n_corr = int(rng.integers(1, len(correlators) + 1))
    kept = correlators[:n_corr]
    equations = []
    for lhs in rng.permutation(n_corr)[:n_equations]:
        picks = rng.permutation(n_corr)[: int(rng.integers(0, n_corr + 1))]
        terms = tuple((float(rng.normal()), kept[i]) for i in picks)
        equations.append(BbgkyEquation(kept[lhs], terms))
    return HierarchySubset(tuple(equations), kept, n_corr, 0)


def test_reduced_solve_matches_paper_form_oracle(rng):
    # Constraint rows can pin an estimate far below its shot-noise variance,
    # and both solves round at the scale of the unconstrained variances, so
    # covariances are compared on that scale (the pinned case is checked in
    # exact arithmetic below). Extrapolations are compared on their own.
    worst = {"extrapolations": 0.0, "covariance": 0.0}
    for degree in range(4):
        for g_weight in (0.0, 1.0, 2.5):
            for shots in (2048, None):
                for constrained in (False, True):
                    ms = random_measurements(
                        rng,
                        n_correlators=int(rng.integers(1, 5)),
                        n_steps=int(rng.integers(1, 7)),
                        n_levels=degree + 1 + int(rng.integers(0, 3)),
                        shots=shots,
                    )
                    subset = (
                        random_subset(rng, ms.correlators, int(rng.integers(1, 4)))
                        if constrained
                        else None
                    )
                    dt = float(rng.uniform(0.05, 0.5))
                    output = run_mitigation(ms, subset, degree, dt, g_weight)
                    plain = run_mitigation(ms, None, degree, dt)
                    extrapolations, covariance = paper_form_solve(output.problem, ms)
                    for name, ours, oracle, scale in (
                        ("extrapolations", output.result.extrapolations, extrapolations,
                         np.abs(extrapolations).max()),
                        ("covariance", output.covariance, covariance, plain.covariance.max()),
                    ):
                        err = float(np.abs(ours - oracle).max())
                        worst[name] = max(worst[name], err / max(scale, np.finfo(float).tiny))
                    if shots is None:
                        assert not output.covariance.any()
    assert worst["extrapolations"] <= 1e-12, worst
    assert worst["covariance"] <= 1e-12, worst


def test_zne_baseline_matches_polyfit(rng):
    ms = random_measurements(rng, n_levels=5)
    baseline = zne_baseline(ms, 2)
    for q in range(ms.n_correlators):
        for s in range(1, ms.n_steps + 1):
            coeffs = np.polyfit(ms.eps[s - 1], ms.values[q, s - 1], 2)
            assert baseline[q, s - 1] == pytest.approx(float(coeffs[-1]), abs=1e-8)


def test_zne_baseline_rejects_duplicate_levels():
    ms = toy_measurements()  # two distinct levels per step
    zne_baseline(ms, 1)  # fine at degree 1
    with pytest.raises(IllPosedFitError):
        zne_baseline(ms, 2)


def test_solve_recovers_exact_polynomial_data(rng):
    z1 = PauliString.parse("Z1")
    eps = np.array([[1.0, 2.0, 3.0], [1.0, 1.5, 2.5]])
    truth = np.array([[0.4, -0.2]])
    slope = np.array([[0.05, 0.1]])
    curve = np.array([[0.01, -0.02]])
    values = truth[:, :, None] + slope[:, :, None] * eps + curve[:, :, None] * eps**2
    ms = MeasurementSet((z1,), values, eps, np.array([1.0]), None)
    result = solve(assemble(ms, None, 2, 0.5))
    np.testing.assert_allclose(result.extrapolations, truth, atol=1e-10)


def test_constraints_preserve_consistent_data():
    # L constant in time, R identically zero: d/dt<L> = <R> holds exactly,
    # so adding the constraint rows must not move the solution
    lhs, rhs = PauliString.parse("Z1"), PauliString.parse("X1")
    subset = HierarchySubset((BbgkyEquation(lhs, ((1.0, rhs),)),), (lhs, rhs), 2, 0)
    eps = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 4.0]])
    c = 0.6
    values = np.stack(
        [
            np.stack([c + 0.1 * eps[s - 1] for s in (1, 2)]),
            np.stack([0.0 * eps[s - 1] for s in (1, 2)]),
        ]
    )
    ms = MeasurementSet((lhs, rhs), values, eps, np.array([c, 0.0]), None)
    plain = solve(assemble(ms, None, 1, 0.5)).extrapolations
    constrained = solve(assemble(ms, subset, 1, 0.5)).extrapolations
    np.testing.assert_allclose(plain[0], c, atol=1e-10)
    np.testing.assert_allclose(constrained, plain, atol=1e-9)


def test_pinned_estimates_match_exact_arithmetic():
    # two steps, one equation: its three rows fix both estimates, and the
    # covariance falls ~1e-9 below the plain variances
    z1 = PauliString.parse("Z1")
    subset = HierarchySubset((BbgkyEquation(z1, ((-0.7, z1),)),), (z1,), 1, 0)
    ms = random_measurements(np.random.default_rng(7), n_correlators=1, n_steps=2, shots=2048)
    output = run_mitigation(ms, subset, 3, 0.3)
    assert output.covariance.max() < 1e-6 * run_mitigation(ms, None, 3, 0.3).covariance.max()

    operator = exact_solution_operator(output.problem.matrix)
    rows = [operator[i] for i in output.problem.layout.extraction_indices().ravel()]
    target = [Fraction(float(v)) for v in output.problem.target]
    # the measured rows come first; zip stops before the noiseless constraint rows
    variances = [Fraction(float(v)) for v in measurement_variances(ms).ravel()]
    exact = np.array([float(sum(r * t for r, t in zip(row, target))) for row in rows])
    exact_cov = np.array(
        [[float(sum(a * v * b for a, v, b in zip(ri, variances, rj))) for rj in rows] for ri in rows]
    )
    np.testing.assert_allclose(output.result.extrapolations.ravel(), exact, rtol=1e-12)
    assert np.abs(output.covariance - exact_cov).max() <= 1e-12 * np.abs(exact_cov).max()


def test_solve_matches_normal_equations(rng):
    base = random_measurements(rng, n_correlators=2, n_steps=3, n_levels=4)
    ms = MeasurementSet(toy_subset().correlators, base.values, base.eps, base.initial, None)
    for subset in (None, toy_subset()):
        problem = assemble(ms, subset, 1, 0.5)
        direct = normal_equation_solve(problem.matrix, problem.target)
        np.testing.assert_allclose(
            solve(problem).extrapolations,
            direct[problem.layout.extraction_indices()],
            atol=1e-8,
        )


def test_measurement_variance_placement(rng):
    ms = random_measurements(rng, shots=1000)
    subset = toy_subset()
    ms2 = MeasurementSet(
        subset.correlators,
        ms.values[:2],
        ms.eps,
        ms.initial[:2],
        1000,
    )
    variances = measurement_variances(ms2)
    assert variances.shape == ms2.values.shape
    for q in range(2):
        for s in range(1, ms2.n_steps + 1):
            for k in range(ms2.n_levels):
                e = ms2.values[q, s - 1, k]
                assert variances[q, s - 1, k] == pytest.approx((1 - e**2) / 1000)


def test_infinite_shots_have_zero_variance(rng):
    ms = random_measurements(rng, shots=None)
    assert not measurement_variances(ms).any()
    output = run_mitigation(ms, None, 1, 0.5)
    assert not output.result.std.any()


def test_propagated_std_matches_monte_carlo(rng):
    subset = toy_subset()
    base = random_measurements(rng, n_correlators=2, n_steps=2, n_levels=4, shots=500)
    ms = MeasurementSet(subset.correlators, base.values, base.eps, base.initial, 500)
    variances = measurement_variances(ms)
    for constraints in (None, subset):
        problem = assemble(ms, constraints, 1, 0.5)
        result = solve(problem)
        cov = extrapolation_covariance(result, variances)
        std = propagate_std(cov, result.extrapolations.shape)
        np.testing.assert_array_equal(std, np.sqrt(np.diag(cov)).reshape(std.shape))

        # redraw the measured values and solve each noisy problem
        draws = 3000
        noise = rng.normal(size=(draws, *variances.shape)) * np.sqrt(variances)
        samples = np.empty((draws, std.size))
        for i in range(draws):
            noisy = replace(problem, data=problem.data + noise[i].reshape(problem.data.shape))
            samples[i] = solve(noisy).extrapolations.ravel()
        mc_std = samples.std(axis=0).reshape(std.shape)
        np.testing.assert_allclose(std, mc_std, rtol=0.12)
        np.testing.assert_allclose(cov, np.cov(samples.T), atol=3e-3)


def test_error_norm_hand_value():
    L, dL = error_norm([0.0, 1.0, 2.0], [0.0, 0.0, 0.0], 0.5)
    assert L == pytest.approx(math.sqrt(2.5))
    assert dL == 0.0
    L, dL = error_norm(
        [0.0, 1.0, 2.0], [0.0, 0.0, 0.0], 0.5, covariance=[0.0, 0.1, 0.2]
    )
    assert L == pytest.approx(math.sqrt(2.5))
    assert dL == pytest.approx(0.3)


def test_error_norm_validation():
    with pytest.raises(ValueError):
        error_norm([1.0], [1.0, 2.0], 0.5)
    with pytest.raises(ValueError):
        error_norm([1.0], [1.0], 0.0)
    with pytest.raises(ValueError):
        error_norm([1.0, 2.0], [0.0, 0.0], 0.5, covariance=[0.1])


def test_observable_series_hand_value():
    z1, z2 = PauliString.parse("Z1"), PauliString.parse("Z2")
    combo = ObservableCombination(1.0, ((0.5, z1), (-1.0, z2)))
    extrapolations = np.array([[1.0, 2.0], [3.0, 4.0]])
    series = observable_series(combo, (z1, z2), [0.5, -0.5], extrapolations)
    np.testing.assert_allclose(series, [1.75, -1.5, -2.0])
    with pytest.raises(ValueError):
        observable_series(combo, (z1,), [0.5], extrapolations[:1])


def test_observable_covariance_hand_value():
    z1, z2 = PauliString.parse("Z1"), PauliString.parse("Z2")
    combo = ObservableCombination(0.0, ((0.5, z1), (-1.0, z2)))
    cov = observable_covariance(combo, (z1, z2), np.eye(4), 2)
    np.testing.assert_allclose(np.diag(cov), [0.0, 1.25, 1.25])
    assert cov[1, 2] == 0.0


def test_zero_weight_constraints_match_unconstrained():
    ms = toy_measurements()
    subset = toy_subset()
    with_rows = run_mitigation(ms, subset, 1, 0.3, g_weight=0.0)
    without = run_mitigation(ms, None, 1, 0.3)
    np.testing.assert_allclose(
        with_rows.result.extrapolations, without.result.extrapolations, atol=1e-9
    )


def test_problem_shape_validation():
    # one correlator, two steps, two levels, degree 1, one equation: two
    # blocks of 2 x 2 Vandermonde rows and three constraint rows
    layout = ProblemLayout(1, 2, 2, 1, 1)
    good = {
        "vander": np.ones((2, 2, 2)),
        "data": np.zeros((2, 2)),
        "constraints": np.zeros((3, 2)),
        "rhs": np.zeros(3),
    }
    problem = MitigationProblem(**good, layout=layout)
    assert problem.matrix.shape == (layout.n_rows, layout.n_cols)
    assert problem.target.shape == (layout.n_rows,)
    for name, shape in (
        ("vander", (2, 2, 3)),
        ("vander", (4, 2)),
        ("data", (2, 3)),
        ("data", (4,)),
        ("constraints", (2, 2)),
        ("constraints", (3, 3)),
        ("rhs", (2,)),
    ):
        with pytest.raises(ValueError, match=name):
            MitigationProblem(**{**good, name: np.zeros(shape)}, layout=layout)
    # a hand-written subset can carry a non-finite coefficient
    for name, array in good.items():
        for bad in (np.nan, np.inf):
            broken = array.copy()
            broken.flat[-1] = bad
            with pytest.raises(ValueError, match="non-finite"):
                MitigationProblem(**{**good, name: broken}, layout=layout)
    subset = toy_subset()
    nan_subset = HierarchySubset(
        (BbgkyEquation(subset.equations[0].lhs, ((math.nan, subset.correlators[1]),)),),
        subset.correlators, 2, 0,
    )
    with pytest.raises(ValueError, match="non-finite"):
        assemble(toy_measurements(), nan_subset, 1, 0.5)


def test_solve_does_not_depend_on_constraint_memory_order(rng):
    base = random_measurements(rng, n_correlators=2, n_steps=5, n_levels=4)
    ms = MeasurementSet(toy_subset().correlators, base.values, base.eps, base.initial, 4096)
    problem = assemble(ms, toy_subset(), 2, 0.3)
    c_ordered = replace(problem, constraints=np.ascontiguousarray(problem.constraints))
    ours, theirs = solve(problem), solve(c_ordered)
    assert ours.extrapolations.tobytes() == theirs.extrapolations.tobytes()
    assert ours.sensitivity.tobytes() == theirs.sensitivity.tobytes()


def test_solve_rejects_too_few_distinct_levels():
    ms = toy_measurements()  # two distinct levels per step
    with pytest.raises(IllPosedFitError, match="step 1"):
        solve(assemble(ms, toy_subset(), 2, 0.5))
    with pytest.raises(IllPosedFitError):
        run_mitigation(ms, None, 2, 0.5)
