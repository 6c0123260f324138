"""Output checks that hold on any seed.

Each check returns a list of failure messages; an empty list is a pass. They
run outside the timed region, and an op with any failure counts as failed.
"""

from __future__ import annotations

import math

import numpy as np

from bbgky_zne.mitigation import RCOND, ProblemLayout, assemble, zne_baseline

#: |plain extrapolation - zne_baseline|, relative to max(1, |baseline|)
ZNE_TOL = 1e-9
#: ||A^T (A c - y)|| / (||A||_F ||y||) at the constrained solution
OPTIMALITY_TOL = 1e-12
#: spread of the exact charge series (Q commutes with H)
CHARGE_TOL = 1e-9
#: default-seed values against the recorded ones: exact reformulations move
#: extrapolations by ~1e-13, a changed random draw by ~1e-2
REFERENCE_RTOL = 1e-8
REFERENCE_ATOL = 1e-12


def zne_matches_baseline(extrapolations, measurements, degree: int) -> list[str]:
    """The unconstrained joint fit equals the per-step polynomial fits."""
    baseline = zne_baseline(measurements, degree)
    got = np.asarray(extrapolations, dtype=float)
    if got.shape != baseline.shape:
        return [f"plain extrapolations have shape {got.shape}, baseline {baseline.shape}"]
    err = float(np.max(np.abs(got - baseline) / np.maximum(1.0, np.abs(baseline))))
    if not err <= ZNE_TOL:
        return [f"plain extrapolations differ from zne_baseline by {err:.3e}"]
    return []


def joint_coefficients(extrapolations, measurements, degree: int) -> np.ndarray:
    """Coefficient vector in :func:`assemble`'s layout whose constant terms are
    ``extrapolations`` and whose other terms are the best fit given them.

    Only the extrapolation rows involve the non-constant terms, so at the
    joint optimum they are exactly this per-block fit.
    """
    n_corr, n_steps, n_levels = measurements.values.shape
    layout = ProblemLayout(n_corr, n_steps, n_levels, degree, 0)
    coeffs = np.zeros((n_corr, n_steps, degree + 1))
    coeffs[:, :, degree] = extrapolations
    for s in range(n_steps):
        if degree == 0:
            break
        vander = np.vander(measurements.eps[s], degree + 1)[:, :degree]
        residual = measurements.values[:, s, :].T - extrapolations[:, s][None, :]
        fit, *_ = np.linalg.lstsq(vander, residual, rcond=RCOND)
        coeffs[:, s, :degree] = fit.T
    return coeffs.reshape(layout.n_cols)


def least_squares_optimal(
    extrapolations, measurements, subset, degree: int, dt: float, g_weight: float
) -> list[str]:
    """The constrained solution satisfies the normal equations of the
    paper-form problem built by :func:`assemble`."""
    extrapolations = np.asarray(extrapolations, dtype=float)
    if extrapolations.shape != measurements.values.shape[:2]:
        return [f"constrained extrapolations have shape {extrapolations.shape}"]
    problem = assemble(measurements, subset, degree, dt, g_weight)
    coeffs = joint_coefficients(extrapolations, measurements, degree)
    gradient = problem.matrix.T @ (problem.matrix @ coeffs - problem.target)
    scale = np.linalg.norm(problem.matrix) * np.linalg.norm(problem.target)
    ratio = float(np.linalg.norm(gradient) / scale)
    if not ratio <= OPTIMALITY_TOL:
        return [f"constrained solution misses the normal equations: relative gradient {ratio:.3e}"]
    return []


def charge_constant(series) -> list[str]:
    """The exact charge series stays at its initial value."""
    series = np.asarray(series, dtype=float)
    spread = float(np.max(np.abs(series - series[0])))
    if not spread <= CHARGE_TOL:
        return [f"exact charge series varies by {spread:.3e}"]
    return []


def component_sizes(sizes, n_qubits: int) -> list[str]:
    """Hierarchy components partition all 4**n strings."""
    if not sizes or any(int(s) != s or s < 1 for s in sizes):
        return [f"component sizes are not positive integers: {sizes[:8]}"]
    if sum(sizes) != 4**n_qubits:
        return [f"component sizes sum to {sum(sizes)}, not 4**{n_qubits}"]
    return []


def matches_reference(values: dict, reference: dict) -> list[str]:
    """Every recorded default-seed value is reproduced: integers exactly,
    floats within the reference tolerance."""
    failures = []
    for key, expected in reference.items():
        got = values.get(key)
        expected_list = expected if isinstance(expected, list) else [expected]
        got_list = got if isinstance(got, list) else [got]
        if got is None or len(got_list) != len(expected_list):
            failures.append(f"{key}: got {got!r}, expected {expected!r}")
            continue
        for i, (g, e) in enumerate(zip(got_list, expected_list)):
            if isinstance(e, int):
                ok = g == e
            else:
                ok = math.isfinite(g) and abs(g - e) <= REFERENCE_ATOL + REFERENCE_RTOL * abs(e)
            if not ok:
                failures.append(f"{key}[{i}]: got {g!r}, expected {e!r}")
                break
    return failures
