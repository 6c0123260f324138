"""Self-contained consistency checks runnable from the CLI.

Each check validates a core identity of the package against an independent
computation (dense commutators, the transposed equations, numerical
differentiation, per-slice fits). They are cheap enough to run routinely.
"""

from __future__ import annotations

import numpy as np

from .hierarchy import SpinHamiltonian, decompose, derive_equation
from .mitigation import (
    ProblemLayout,
    bernstein_deriv_weight,
    bernstein_value,
    run_mitigation,
)
from .pauli import PauliString, all_strings, dense_pauli
from .schwinger import SchwingerParams, build_hamiltonian
from .simulator import MeasurementSet


def random_hamiltonian(rng: np.random.Generator, n_qubits: int) -> SpinHamiltonian:
    """Normal random fields and couplings on every site pair."""
    h = rng.normal(size=(n_qubits, 3))
    V = np.zeros((n_qubits, n_qubits, 3, 3))
    upper = np.triu_indices(n_qubits, k=1)
    V[upper] = rng.normal(size=(len(upper[0]), 3, 3))
    return SpinHamiltonian(n_qubits, h, V)


def random_string(rng: np.random.Generator, n_qubits: int) -> PauliString:
    """Uniformly random non-identity Pauli string."""
    while True:
        axes = rng.integers(0, 4, size=n_qubits)
        if axes.any():
            return PauliString(
                tuple((i + 1, int(a)) for i, a in enumerate(axes) if a)
            )


def check_equation_commutator(seed: int) -> tuple[bool, str]:
    """derive_equation must match the dense expansion of i [H, s]."""
    rng = np.random.default_rng([seed, 1])
    worst = 0.0
    for n_qubits in (2, 3, 4):
        for _ in range(5):
            ham = random_hamiltonian(rng, n_qubits)
            dense_h = ham.dense()
            for _ in range(5):
                s = random_string(rng, n_qubits)
                equation = derive_equation(ham, s)
                dense_s = dense_pauli(s, n_qubits)
                commutator = 1j * (dense_h @ dense_s - dense_s @ dense_h)
                claimed = sum(
                    (c * dense_pauli(t, n_qubits) for c, t in equation.terms),
                    np.zeros_like(commutator),
                )
                worst = max(worst, float(np.abs(commutator - claimed).max()))
    return worst < 1e-10, f"max dense deviation {worst:.2e}"


def check_antisymmetry(seed: int) -> tuple[bool, str]:
    """The coefficient of t in the equation of s must be exactly minus that
    of s in the equation of t, so the hierarchy graph is undirected."""
    rng = np.random.default_rng([seed, 2])
    for n_qubits in (2, 3):
        for _ in range(3):
            ham = random_hamiltonian(rng, n_qubits)
            coeffs = {
                (s, t): c
                for s in all_strings(n_qubits)
                for c, t in derive_equation(ham, s).terms
            }
            for (s, t), c in coeffs.items():
                if coeffs.get((t, s)) != -c:
                    return False, f"{s.token()!r} -> {t.token()!r} on {n_qubits} qubits"
    return True, "exhaustive at 2 and 3 qubits"


def check_components(seed: int) -> tuple[bool, str]:
    ham = build_hamiltonian(SchwingerParams(mass_ratio=0.5, l0=0.5))
    sizes = decompose(ham)
    return sizes == [1, 1, 126, 128], f"component sizes {sizes}"


def check_bernstein(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng([seed, 3])
    n, dt = 12, 0.25
    slope, offset = rng.normal(size=2)
    affine = offset + slope * dt * np.arange(n + 1)
    for x in np.linspace(0.0, 1.0, 7):
        weights = np.array([bernstein_deriv_weight(s, n, x, dt) for s in range(n + 1)])
        if abs(weights @ affine - slope) > 1e-12:
            return False, f"affine derivative off at x={x}"
    samples = rng.normal(size=n + 1)
    for x in (0.2, 0.5, 0.8):
        weights = np.array([bernstein_deriv_weight(s, n, x, dt) for s in range(n + 1)])
        step = 1e-6

        def fit(y: float) -> float:
            return sum(
                samples[s] * bernstein_value(s, n, y) for s in range(n + 1)
            )

        numeric = (fit(x + step) - fit(x - step)) / (2 * step * n * dt)
        if abs(weights @ samples - numeric) > 1e-6:
            return False, f"derivative weights off at x={x}"
    return True, "affine exact, matches numerical derivative"


def _random_measurements(rng: np.random.Generator) -> MeasurementSet:
    n_corr = int(rng.integers(1, 4))
    n_steps = int(rng.integers(2, 6))
    n_levels = int(rng.integers(3, 5))
    sites = rng.permutation(np.arange(1, 9))[:n_corr]
    correlators = tuple(
        PauliString.single(int(site), int(rng.integers(1, 4))) for site in sites
    )
    eps = 1.0 + np.sort(rng.uniform(0.0, 4.0, size=(n_steps, n_levels)), axis=1)
    values = rng.uniform(-1.0, 1.0, size=(n_corr, n_steps, n_levels))
    initial = rng.uniform(-1.0, 1.0, size=n_corr)
    return MeasurementSet(correlators, values, eps, initial, 1024)


def check_decoupling(seed: int) -> tuple[bool, str]:
    """Without constraint rows the mitigation is the per-slice polynomial fit."""
    rng = np.random.default_rng([seed, 4])
    worst = 0.0
    for _ in range(20):
        measurements = _random_measurements(rng)
        degree = int(rng.integers(0, measurements.n_levels - 1))
        joint = run_mitigation(measurements, None, degree, 0.1).result.extrapolations
        for q in range(measurements.n_correlators):
            for s in range(measurements.n_steps):
                fit = np.polyfit(measurements.eps[s], measurements.values[q, s], degree)
                worst = max(worst, abs(float(joint[q, s] - fit[-1])))
    return worst < 1e-8, f"max decoupling deviation {worst:.2e}"


def check_problem_shape(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng([seed, 5])
    for _ in range(20):
        n_corr = int(rng.integers(1, 5))
        n_steps = int(rng.integers(1, 6))
        n_levels = int(rng.integers(1, 5))
        degree = int(rng.integers(0, 4))
        n_equations = int(rng.integers(0, 4))
        layout = ProblemLayout(n_corr, n_steps, n_levels, degree, n_equations)
        rows = n_levels * n_steps * n_corr + n_equations * (n_steps + 1)
        cols = (degree + 1) * n_steps * n_corr
        if (layout.n_rows, layout.n_cols) != (rows, cols):
            return False, "row/column count mismatch"
        for q in range(n_corr):
            for s in range(1, n_steps + 1):
                expected = (degree + 1) + (s - 1) * (degree + 1) + q * (degree + 1) * n_steps
                if layout.extraction_index(q, s) != expected - 1:
                    return False, f"extraction index mismatch at q={q}, s={s}"
    return True, "shape and extraction indices verified"


CHECKS = (
    ("equation-of-motion vs dense commutator", check_equation_commutator),
    ("generator antisymmetry", check_antisymmetry),
    ("hierarchy component sizes", check_components),
    ("derivative weights", check_bernstein),
    ("unconstrained solve decouples", check_decoupling),
    ("problem shape and extraction index", check_problem_shape),
)


def run_all(seed: int = 0) -> bool:
    all_ok = True
    for name, check in CHECKS:
        ok, detail = check(seed)
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})")
    return all_ok
