"""End-to-end gate checks.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
asserts the same condition, so the suite doubles as a checklist of the
package's headline guarantees.
"""

import math

import numpy as np
import pytest

from bbgky_zne.hierarchy import (
    BbgkyEquation,
    HierarchySubset,
    decompose,
    derive_equation,
)
from bbgky_zne.mitigation import (
    ProblemLayout,
    assemble,
    run_mitigation,
)
from bbgky_zne.pauli import PauliString, all_strings
from bbgky_zne.schwinger import (
    SchwingerParams,
    build_hamiltonian,
    charge_observable,
    hierarchy_seeds,
    particle_number_observable,
    run_cell,
)
from bbgky_zne.simulator import (
    EvolutionPlan,
    MeasurementSet,
    NoiseModel,
    evolve_exact,
    evolve_noisy,
)
from bbgky_zne.mitigation import error_norm, observable_series
from conftest import (
    random_hamiltonian,
    random_measurements,
    random_string,
    sampled_derivative,
)
from oracles import axes_of, equation_coefficients

DEFAULT_LEVELS = (0.0, 1.0, 1.5, 2.0)
SYNTHETIC_NOISE = NoiseModel(0.001, 0.01, 0.02)


def report(label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {label}  ({detail})")
    assert ok, f"{label}: {detail}"


def test_equations_match_dense_commutators():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        n = int(rng.choice([2, 3, 4]))
        ham = random_hamiltonian(rng, n)
        for _ in range(20):
            s = random_string(rng, n)
            eq = derive_equation(ham, s)
            expected = equation_coefficients(n, ham.h, ham.V, axes_of(s.factors, n))
            got = {axes_of(t.factors, n): c for c, t in eq.terms}
            keys = set(expected) | set(got)
            dev = max(
                (abs(got.get(k, 0.0) - expected.get(k, 0.0)) for k in keys),
                default=0.0,
            )
            worst = max(worst, dev)
    report(
        "equations of motion match dense commutator expansion",
        worst < 1e-10,
        f"max coefficient deviation {worst:.2e} over 1000 derivations",
    )


def test_generator_is_exactly_antisymmetric():
    rng = np.random.default_rng(202)
    pairs = 0
    ok = True
    for n_qubits in (2, 3):
        for _ in range(10):
            ham = random_hamiltonian(rng, n_qubits)
            coeffs = {
                (s, t): c
                for s in all_strings(n_qubits)
                for c, t in derive_equation(ham, s).terms
            }
            pairs += len(coeffs)
            ok = ok and all(coeffs.get((t, s)) == -c for (s, t), c in coeffs.items())
    report(
        "coefficient of t in the equation of s is minus that of s in the equation of t",
        ok,
        f"exhaustive at 2-3 qubits, {pairs} coefficient pairs",
    )


def test_component_sizes_of_the_default_chain():
    ham = build_hamiltonian(SchwingerParams(4, 0.5, 30.0, 0.5, 100.0))
    sizes = decompose(ham)
    report(
        "hierarchy of the 4-site chain splits into the known components",
        sizes == [1, 1, 126, 128],
        f"sizes {sizes}",
    )


def test_trotter_error_vs_exact_reference():
    plan = EvolutionPlan(20, 4.0, 1, (0.0,), None, 1)
    quiet = NoiseModel(0.0, 0.0, 0.0)
    results = {}
    for l0, mass in ((0.0, 0.0), (0.0, 0.15)):
        params = SchwingerParams(4, mass, 30.0, l0, 100.0)
        ham = build_hamiltonian(params)
        correlators = hierarchy_seeds(4)
        ms = evolve_noisy(ham, "0101", plan, quiet, correlators)
        observables = [charge_observable(4), particle_number_observable(4)]
        refs = evolve_exact(ham, "0101", plan.times, observables)
        for name, obs, ref in zip("QP", observables, refs):
            series = observable_series(obs, correlators, ms.initial, ms.values[:, :, 0])
            results[(l0, mass, name)] = error_norm(series, ref, plan.dt)[0]
    ok = all(results[(l0, m, "Q")] <= 1e-12 for l0, m in ((0.0, 0.0), (0.0, 0.15)))
    ok = ok and all(
        results[(l0, m, "P")] <= 0.02 for l0, m in ((0.0, 0.0), (0.0, 0.15))
    )
    report(
        "bare product-formula error stays inside its budget",
        ok,
        "L_Q <= {:.1e}, L_P <= {:.1e}".format(
            max(results[k] for k in results if k[2] == "Q"),
            max(results[k] for k in results if k[2] == "P"),
        ),
    )


def test_plain_extrapolation_decouples():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        ms = random_measurements(
            rng,
            n_correlators=int(rng.integers(1, 5)),
            n_steps=int(rng.integers(1, 7)),
            n_levels=int(rng.integers(3, 6)),
            shots=int(rng.integers(100, 10000)),
        )
        joint = run_mitigation(ms, None, 2, 0.2).result.extrapolations
        per_slice = np.array(
            [[np.polyfit(ms.eps[s], ms.values[q, s], 2)[-1] for s in range(ms.n_steps)]
             for q in range(ms.n_correlators)]
        )
        worst = max(worst, float(np.abs(joint - per_slice).max()))
    report(
        "joint solve without constraint rows equals per-step fits",
        worst <= 1e-8,
        f"max deviation {worst:.2e} over 100 fixtures",
    )


def test_problem_shape_and_extraction_identity():
    rng = np.random.default_rng(404)
    ok = True
    for _ in range(50):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 9))
        lam = int(rng.integers(1, 6))
        g = int(rng.integers(0, 5))
        d = int(rng.integers(0, 4))
        layout = ProblemLayout(lam, n, m, d, g)
        ok = ok and layout.n_rows == m * n * lam + g * (n + 1)
        ok = ok and layout.n_cols == (d + 1) * n * lam
        for q in range(lam):
            for s in range(1, n + 1):
                ok = ok and layout.extraction_index(q, s) == (q * n + s - 1) * (d + 1) + d
    report(
        "assembled problem shape and extraction indices are exact",
        ok,
        "50 randomized layouts",
    )


def test_derivative_weights_converge_and_are_affine_exact():
    horizon = 4.0
    errors = []
    for degree in (20, 40, 80):
        dt = horizon / degree
        samples = np.sin(np.arange(degree + 1) * horizon / degree)
        xs = np.linspace(0.0, 1.0, 81)
        err = max(
            abs(sampled_derivative(samples, x, dt) - math.cos(x * horizon)) for x in xs
        )
        errors.append(err)
    ratios = (errors[0] / errors[1], errors[1] / errors[2])
    dt = horizon / 40
    affine = 0.25 - 0.3 * np.arange(41) * dt
    affine_dev = max(abs(sampled_derivative(affine, x, dt) + 0.3) for x in (0.0, 0.35, 1.0))
    ok = all(1.6 <= r <= 2.6 for r in ratios) and affine_dev <= 1e-12
    report(
        "sampled-derivative error halves as the grid doubles",
        ok,
        f"ratios {ratios[0]:.2f}, {ratios[1]:.2f}; affine deviation {affine_dev:.1e}",
    )


def test_constraints_improve_noisy_charge_estimates():
    params = SchwingerParams(4, 0.0, 30.0, 0.0, 100.0)
    l_wins = 0
    dl_wins = 0
    for seed in range(10):
        plan = EvolutionPlan(20, 4.0, 1, DEFAULT_LEVELS, 10240, seed)
        outcome = run_cell(params, plan, SYNTHETIC_NOISE, 0, 2)
        r = outcome.reports["Q"]
        l_wins += r.L_bbgky <= r.L_zne
        dl_wins += r.dL_bbgky <= r.dL_zne
    report(
        "constraint rows reduce the charge error and its uncertainty",
        l_wins >= 8 and dl_wins == 10,
        f"error wins {l_wins}/10, uncertainty wins {dl_wins}/10",
    )


def test_error_norm_stable_under_more_shots():
    params = SchwingerParams(4, 0.0, 30.0, 0.0, 100.0)
    outcomes = {}
    for shots in (640, 2560, 10240):
        plan = EvolutionPlan(20, 4.0, 1, DEFAULT_LEVELS, shots, 7)
        outcomes[shots] = run_cell(params, plan, SYNTHETIC_NOISE, 0, 2).reports["Q"]
    ok = True
    worst = -np.inf
    for low, high in ((640, 2560), (2560, 10240)):
        a, b = outcomes[low], outcomes[high]
        for l_low, dl_low, l_high, dl_high in (
            (a.L_zne, a.dL_zne, b.L_zne, b.dL_zne),
            (a.L_bbgky, a.dL_bbgky, b.L_bbgky, b.dL_bbgky),
        ):
            margin = l_high - l_low - 1.5 * math.hypot(dl_low, dl_high)
            worst = max(worst, margin)
            ok = ok and margin <= 0.0
    report(
        "both mitigations keep improving as the shot count grows",
        ok,
        f"worst tolerance margin {worst:+.4f}",
    )


def test_two_equation_toy_problem_pattern():
    z1, x1 = PauliString.parse("Z1"), PauliString.parse("X1")
    subset = HierarchySubset(
        (
            BbgkyEquation(z1, ((-2.0, x1),)),
            BbgkyEquation(x1, ((0.5, z1),)),
        ),
        (z1, x1),
        2,
        0,
    )
    ms = MeasurementSet(
        (z1, x1),
        np.array(
            [
                [[0.9, 0.7], [0.8, 0.5]],
                [[0.1, 0.3], [0.2, 0.4]],
            ]
        ),
        np.array([[1.0, 3.0], [1.0, 2.0]]),
        np.array([1.0, 0.0]),
        None,
    )
    problem = assemble(ms, subset, 1, 0.5)

    expected = np.zeros((14, 8))
    expected[0, 0:2] = [1.0, 1.0]
    expected[1, 0:2] = [3.0, 1.0]
    expected[2, 2:4] = [1.0, 1.0]
    expected[3, 2:4] = [2.0, 1.0]
    expected[4, 4:6] = [1.0, 1.0]
    expected[5, 4:6] = [3.0, 1.0]
    expected[6, 6:8] = [1.0, 1.0]
    expected[7, 6:8] = [2.0, 1.0]
    # first equation: derivative weights on the Z1 estimate columns and the
    # negated right-hand-side coefficient on the X1 columns
    expected[8, 1], expected[8, 3] = 2.0, 0.0
    expected[9, 1], expected[9, 3], expected[9, 5] = 0.0, 1.0, 2.0
    expected[10, 1], expected[10, 3], expected[10, 7] = -2.0, 2.0, 2.0
    # second equation mirrors it with coefficient +0.5
    expected[11, 5], expected[11, 7] = 2.0, 0.0
    expected[12, 5], expected[12, 7], expected[12, 1] = 0.0, 1.0, -0.5
    expected[13, 5], expected[13, 7], expected[13, 3] = -2.0, 2.0, -0.5

    expected_target = np.array(
        [0.9, 0.7, 0.8, 0.5, 0.1, 0.3, 0.2, 0.4, 2.0, 1.0, 0.0, 0.5, 0.0, 0.0]
    )

    same_pattern = np.array_equal(problem.matrix != 0.0, expected != 0.0)
    value_dev = float(np.abs(problem.matrix - expected).max())
    target_dev = float(np.abs(problem.target - expected_target).max())
    report(
        "two-equation toy problem reproduces the hand-coded matrix",
        same_pattern and value_dev <= 1e-12 and target_dev <= 1e-12,
        f"pattern match {same_pattern}, value deviation {value_dev:.1e}, "
        f"target deviation {target_dev:.1e}",
    )
