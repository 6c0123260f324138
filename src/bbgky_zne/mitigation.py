"""Joint zero-noise extrapolation with equation-of-motion constraints.

Every measured correlator q at every step s gets its own polynomial model in
the error level,

    <Q_q>(eps) = a_{q,s,d} eps^d + ... + a_{q,s,1} eps + <Q_q>^0_s,

whose constant term is the mitigated (zero-noise) estimate. In the paper
form all models are fitted in one linear least-squares problem. The top
block of the design matrix holds one Vandermonde row per measured
(q, s, level) point; below it, one row per (equation, time point) couples
the constant terms of different correlators through the hierarchy
equations, with the time derivative taken on the Bernstein polynomial that
interpolates the mitigated time series:

    sum_{s'=1..N} <L>^0_{s'} beta_{s'N}(t/T) - sum_k c_k <R_k>^0_{t/dt}
        = -beta_{0N}(t/T) <L>_0  (+ sum_k c_k <R_k>_0 at t = 0),

where the known exact t=0 values sit on the right-hand side. The unknown
vector stacks the per-(q, s) coefficient blocks in descending powers, so the
mitigated estimate of block (q, s) lives at flat index
``(q * N + s - 1) * (d + 1) + d``.

:func:`assemble` builds only the pieces of that matrix: one Vandermonde
block per (q, s), the measured values, and the constraint rows G, g over
the Q * N constant terms. The dense matrix and right-hand side are views of
a :class:`MitigationProblem` that are built on first use, by
``bbgky-zne mitigate --dump-matrix`` and by the checks that compare the
reduced solve with a direct solve of the paper form.

:func:`solve` never forms that matrix. The non-constant coefficients of
block (q, s) appear only in the block's own Vandermonde rows V, so they are
eliminated in closed form (separable least squares, Golub & Pereyra, SIAM J.
Numer. Anal. 10:413, 1973): for a fixed constant term c the block's best
residual is ``w (c - c_hat)^2`` plus a constant, where ``c_hat`` is the plain
ZNE estimate of the block and ``w = 1 / [(V^T V)^-1]_dd``. Both come from one
QR factorisation of V. What remains is the weighted fit of the Q * N
constant terms alone,

    [diag(sqrt w); G] c ~= [sqrt(w) c_hat; g].

With ``u = sqrt(w) (c - c_hat)`` it becomes the minimum-norm solution of
``[G diag(w)^-1/2, I] [u; v] = g - G c_hat``, one QR of a (Q N + m) x m
matrix for m constraint rows. Without constraint rows the fit is
c = c_hat, which is :func:`zne_baseline`.

Each c_hat is linear in its own block's data and the blocks are independent,
so the shot-noise covariance of c is exactly ``J diag(var c_hat) J^T`` with
J = dc/dc_hat (:func:`extrapolation_covariance`).

A step with fewer than d + 1 distinct error levels has no unique fit, and
the solve raises :class:`~bbgky_zne.errors.IllPosedFitError`. Otherwise the
paper-form problem has full column rank and its least-squares solution is
the one :func:`solve` returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import IllPosedFitError
from .hierarchy import BbgkyEquation, HierarchySubset
from .pauli import ObservableCombination, PauliString
from .simulator import MeasurementSet

#: relative singular-value cutoff for pseudoinverse and ``lstsq`` solves of
#: the paper-form problem, where one is made to check the reduced solve
RCOND = 1e-10


def bernstein_value(s: int, degree: int, x: float) -> float:
    """Bernstein basis polynomial ``C(degree, s) x^s (1-x)^(degree-s)``."""
    if int(degree) != degree or degree < 0:
        raise ValueError(f"degree must be a non-negative integer, got {degree}")
    if int(s) != s or not 0 <= s <= degree:
        raise ValueError(f"index must lie in 0..{degree}, got {s}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    return math.comb(int(degree), int(s)) * x**s * (1.0 - x) ** (degree - s)


def bernstein_deriv_weight(s: int, degree: int, x: float, dt: float) -> float:
    """Weight of sample s in the exact derivative of the Bernstein fit.

    For samples ``f_0 .. f_degree`` on a uniform grid with spacing dt,
    ``sum_s f_s * bernstein_deriv_weight(s, degree, x, dt)`` is the exact
    t-derivative of the Bernstein polynomial through those samples at
    ``t = degree * dt * x``. Affine sequences are differentiated exactly.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if int(degree) != degree or degree < 1:
        raise ValueError(f"degree must be a positive integer, got {degree}")
    if int(s) != s or not 0 <= s <= degree:
        raise ValueError(f"index must lie in 0..{degree}, got {s}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if s == 0:
        value = -((1.0 - x) ** (degree - 1))
    elif s == degree:
        value = x ** (degree - 1)
    else:
        value = bernstein_value(s - 1, degree - 1, x) - bernstein_value(s, degree - 1, x)
    return value / dt


@dataclass(frozen=True)
class ProblemLayout:
    """Row/column bookkeeping of the joint mitigation problem."""

    n_correlators: int
    n_steps: int
    n_levels: int
    degree: int
    n_equations: int

    @property
    def n_rows(self) -> int:
        return (
            self.n_levels * self.n_steps * self.n_correlators
            + self.n_equations * (self.n_steps + 1)
        )

    @property
    def n_cols(self) -> int:
        return (self.degree + 1) * self.n_steps * self.n_correlators

    def extraction_index(self, q: int, s: int) -> int:
        """Flat column of the mitigated estimate of correlator q at step s."""
        return (q * self.n_steps + (s - 1)) * (self.degree + 1) + self.degree

    def extraction_indices(self) -> np.ndarray:
        base = np.arange(self.n_correlators * self.n_steps) * (self.degree + 1)
        return (base + self.degree).reshape(self.n_correlators, self.n_steps)


@dataclass(frozen=True)
class MitigationProblem:
    """Block form of the joint least-squares problem.

    ``vander[b]`` is the descending-power Vandermonde matrix of block
    b = q * N + s - 1, shape (Q * N, levels, d + 1), and ``data[b]`` its
    measured values. ``constraints`` is G, one row per (equation, time point)
    over the Q * N constant terms, and ``rhs`` is g; both are already scaled by
    ``g_weight``. :attr:`matrix` and :attr:`target` scatter these blocks into
    the dense paper form on first use.
    """

    vander: np.ndarray
    data: np.ndarray
    constraints: np.ndarray
    rhs: np.ndarray
    layout: ProblemLayout

    def __post_init__(self) -> None:
        layout = self.layout
        n_blocks = layout.n_correlators * layout.n_steps
        n_rows = layout.n_equations * (layout.n_steps + 1)
        for name, shape in (
            ("vander", (n_blocks, layout.n_levels, layout.degree + 1)),
            ("data", (n_blocks, layout.n_levels)),
            ("constraints", (n_rows, n_blocks)),
            ("rhs", (n_rows,)),
        ):
            array = np.asarray(getattr(self, name), dtype=float)
            if array.shape != shape:
                raise ValueError(f"{name} shape {array.shape} != layout shape {shape}")
            if not np.isfinite(array).all():
                raise ValueError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, array)
        # one memory order for G, so the solve's BLAS products round the same
        # way whoever built it
        object.__setattr__(self, "constraints", np.asfortranarray(self.constraints))

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense paper-form design matrix, (n_rows, n_cols)."""
        layout = self.layout
        n_blocks, n_levels, width = self.vander.shape
        matrix = np.zeros((layout.n_rows, layout.n_cols))
        top = matrix[: n_blocks * n_levels].reshape(n_blocks, n_levels, n_blocks, width)
        blocks = np.arange(n_blocks)
        top[blocks, :, blocks, :] = self.vander
        matrix[n_blocks * n_levels :, layout.extraction_indices().ravel()] = self.constraints
        return matrix

    @cached_property
    def target(self) -> np.ndarray:
        """Dense paper-form right-hand side: measured values, then g."""
        return np.concatenate([self.data.ravel(), self.rhs])


@dataclass(frozen=True)
class MitigationResult:
    """Zero-noise estimates of the reduced fit and what their covariance needs.

    ``gains[q, s-1]`` maps block (q, s)'s measured values to its plain ZNE
    estimate c_hat. ``sensitivity`` is the Jacobian dc/dc_hat over the
    flattened (q-major) estimates, or ``None`` when no constraint row acts and
    c = c_hat.
    """

    extrapolations: np.ndarray
    gains: np.ndarray
    sensitivity: np.ndarray | None
    std: np.ndarray | None = None


def _check_degree(degree: int) -> int:
    if int(degree) != degree or degree < 0:
        raise ValueError(f"degree must be a non-negative integer, got {degree}")
    return int(degree)


def _vandermonde(measurements: MeasurementSet, degree: int) -> np.ndarray:
    """Descending-power Vandermonde matrix of every (q, s) block, shape
    (Q * N, levels, degree + 1), block b = q * N + s - 1."""
    shape = measurements.values.shape
    eps = np.broadcast_to(measurements.eps, shape)
    return (eps[..., None] ** np.arange(degree, -1, -1)).reshape(-1, shape[2], degree + 1)


def assemble(
    measurements: MeasurementSet,
    subset: HierarchySubset | None,
    degree: int,
    dt: float,
    g_weight: float = 1.0,
) -> MitigationProblem:
    """Build the joint problem from measured data and optional constraints.

    ``subset`` may be ``None`` (or carry no equations) for plain per-slice
    extrapolation. When present, its correlators must be a prefix of the
    measured correlators so column indices agree. ``dt`` is the step length
    of the measurement grid; ``g_weight`` scales the constraint rows.
    """
    degree = _check_degree(degree)
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not 0.0 <= g_weight < math.inf:
        raise ValueError(f"g_weight must be finite and >= 0, got {g_weight}")

    n_corr = measurements.n_correlators
    n_steps = measurements.n_steps

    equations: tuple[BbgkyEquation, ...] = ()
    if subset is not None and subset.n_equations:
        if subset.n_correlators > n_corr or any(
            subset.correlators[i] != measurements.correlators[i]
            for i in range(subset.n_correlators)
        ):
            raise ValueError(
                "subset correlators must be a prefix of the measured correlators"
            )
        equations = subset.equations

    layout = ProblemLayout(n_corr, n_steps, measurements.n_levels, degree, len(equations))
    # weights[step, s] of sample s in the derivative at time point step
    grid = range(n_steps + 1)
    weights = np.array(
        [[bernstein_deriv_weight(s, n_steps, step / n_steps, dt) for s in grid] for step in grid]
    )
    constraints = np.zeros((len(equations) * (n_steps + 1), n_corr * n_steps), order="F")
    rhs = np.zeros(len(equations) * (n_steps + 1))
    index = {string: i for i, string in enumerate(measurements.correlators)}
    diagonal = np.arange(n_steps)
    for e, equation in enumerate(equations):
        rows = slice(e * (n_steps + 1), (e + 1) * (n_steps + 1))
        q_lhs = index[equation.lhs]
        constraints[rows, q_lhs * n_steps : (q_lhs + 1) * n_steps] += g_weight * weights[:, 1:]
        # the known t = 0 values sit on the right-hand side
        value = -weights[:, 0] * measurements.initial[q_lhs]
        for coeff, string in equation.terms:
            q_rhs = index[string]
            constraints[rows.start + 1 + diagonal, q_rhs * n_steps + diagonal] -= g_weight * coeff
            value[0] += coeff * measurements.initial[q_rhs]
        rhs[rows] = g_weight * value

    data = measurements.values.reshape(-1, layout.n_levels)
    return MitigationProblem(_vandermonde(measurements, degree), data, constraints, rhs, layout)


def _fit_blocks(
    vander: np.ndarray, data: np.ndarray, n_steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Plain polynomial fit of every block to eps = 0.

    ``vander`` holds one descending-power Vandermonde matrix per block, shape
    (blocks, levels, degree + 1), and ``data`` the measured values, shape
    (blocks, levels); block b belongs to step ``b % n_steps + 1``. Returns the
    constant terms and the gains h with ``estimate = h @ data``. Raises
    :class:`IllPosedFitError` when a block has fewer than ``degree + 1``
    distinct error levels.
    """
    degree = vander.shape[-1] - 1
    if degree >= 1:
        eps = np.sort(vander[:, :, -2], axis=1)
        distinct = 1 + np.count_nonzero(np.diff(eps, axis=1) > 1e-12, axis=1)
        short = np.flatnonzero(distinct < degree + 1)
        if short.size:
            b = int(short[0])
            raise IllPosedFitError(
                f"step {b % n_steps + 1}: {distinct[b]} distinct error levels "
                f"cannot support degree {degree}"
            )
    # V = QR with the constant column last: the constant term of the fit is
    # Q[:, d] . y / R[d, d], and [(V^T V)^-1]_dd = 1 / R[d, d]^2
    basis, upper = np.linalg.qr(vander)
    gains = basis[:, :, degree] / upper[:, degree, degree, None]
    return np.einsum("bl,bl->b", gains, data), gains


def solve(problem: MitigationProblem) -> MitigationResult:
    """Least-squares zero-noise estimates of an :func:`assemble` problem.

    Solves the reduced weighted fit described in the module docstring; the
    result equals the paper-form least-squares solution.
    """
    layout = problem.layout
    estimates, gains = _fit_blocks(problem.vander, problem.data, layout.n_steps)
    shape = (layout.n_correlators, layout.n_steps)
    gains_out = gains.reshape(*shape, layout.n_levels)
    constraints = problem.constraints
    if not constraints.any():
        return MitigationResult(estimates.reshape(shape), gains_out, None)

    root_w = 1.0 / np.linalg.norm(gains, axis=1)
    n_rows = constraints.shape[0]
    # min ||u||^2 + ||G D^-1 u - (g - G c_hat)||^2 with D = diag(sqrt w) is the
    # minimum-norm solution of [G D^-1, I] z = g - G c_hat. With the complete
    # QR of that matrix's transpose, z = Q[:, :m] R^-T (g - G c_hat), and
    # dc/dc_hat = D^-1 (I - X X^T) D = D^-1 Y Y^T D for the top rows X, Y of
    # Q[:, :m], Q[:, m:]: a product without cancellation where the constraints
    # pin an estimate.
    q, upper = np.linalg.qr(
        np.vstack([(constraints / root_w).T, np.eye(n_rows)]), mode="complete"
    )
    n_blocks = root_w.size
    x, y = q[:n_blocks, :n_rows], q[:n_blocks, n_rows:]
    residual = problem.rhs - constraints @ estimates
    extrapolations = estimates + x @ np.linalg.solve(upper[:n_rows].T, residual) / root_w
    sensitivity = (y / root_w[:, None]) @ (y.T * root_w)
    return MitigationResult(extrapolations.reshape(shape), gains_out, sensitivity)


def zne_baseline(measurements: MeasurementSet, degree: int) -> np.ndarray:
    """Independent per-(q, s) polynomial extrapolations to eps = 0.

    This is the joint fit without constraint rows. Requires at least
    ``degree + 1`` distinct error levels in every step column.
    """
    degree = _check_degree(degree)
    estimates, _ = _fit_blocks(
        _vandermonde(measurements, degree),
        measurements.values.reshape(-1, measurements.n_levels),
        measurements.n_steps,
    )
    return estimates.reshape(measurements.values.shape[:2])


def measurement_variances(measurements: MeasurementSet) -> np.ndarray:
    """Shot-noise variance of every measured point, shaped like ``values``.

    Uses the binomial estimate ``(1 - e^2) / shots`` per measured point and
    all zeros in infinite-shot mode.
    """
    if measurements.shots is None:
        return np.zeros_like(measurements.values)
    return (1.0 - measurements.values**2) / measurements.shots


def extrapolation_covariance(
    result: MitigationResult, point_variances: Sequence[float]
) -> np.ndarray:
    """Full covariance of the extracted estimates, flattened (q-major).

    ``point_variances`` holds the noise variance of every measured point,
    shaped like the measured values.
    """
    variances = np.asarray(point_variances, dtype=float)
    if variances.shape != result.gains.shape:
        raise ValueError(
            f"need one variance per measured point {result.gains.shape}, got {variances.shape}"
        )
    if np.any(variances < 0.0) or not np.isfinite(variances).all():
        raise ValueError("point variances must be finite and non-negative")
    n_levels = result.gains.shape[-1]
    plain = np.einsum(
        "bl,bl->b", result.gains.reshape(-1, n_levels) ** 2, variances.reshape(-1, n_levels)
    )
    if result.sensitivity is None:
        return np.diag(plain)
    factor = result.sensitivity * np.sqrt(plain)
    return factor @ factor.T


def propagate_std(covariance: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Standard deviation of each extracted estimate: the square root of the
    covariance diagonal, reshaped to (correlators, steps)."""
    return np.sqrt(np.diag(covariance)).reshape(shape)


def error_norm(
    estimates: Sequence[float],
    references: Sequence[float],
    dt: float,
    covariance: np.ndarray | Sequence[float] | None = None,
) -> tuple[float, float]:
    """Time-integrated deviation ``L = sqrt(dt * sum_s (est_s - ref_s)^2)``.

    When a covariance (full matrix or per-point variances) of the estimate
    series is given, the uncertainty of L is propagated to leading order.
    """
    estimates = np.asarray(estimates, dtype=float)
    references = np.asarray(references, dtype=float)
    if estimates.ndim != 1 or estimates.shape != references.shape:
        raise ValueError("estimates and references must be 1-D arrays of equal length")
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    diffs = estimates - references
    norm = math.sqrt(dt * float(diffs @ diffs))
    if covariance is None:
        return norm, 0.0
    cov = np.asarray(covariance, dtype=float)
    if cov.ndim == 1:
        if cov.shape != estimates.shape:
            raise ValueError("variance vector must match the series length")
        cov = np.diag(cov)
    if cov.shape != (estimates.size, estimates.size):
        raise ValueError("covariance must be square and match the series length")
    if norm == 0.0:
        return 0.0, 0.0
    grad = dt * diffs / norm
    variance = float(grad @ cov @ grad)
    return norm, math.sqrt(max(variance, 0.0))


def observable_series(
    observable: ObservableCombination,
    correlators: Sequence[PauliString],
    initial: Sequence[float],
    extrapolations: np.ndarray,
) -> np.ndarray:
    """Mitigated time series of an affine observable, exact value at t=0."""
    index = {string: i for i, string in enumerate(correlators)}
    missing = [s.token() for s in observable.strings if s not in index]
    if missing:
        raise ValueError(f"observable strings not measured: {missing}")
    initial = np.asarray(initial, dtype=float)
    n_steps = extrapolations.shape[1]
    series = np.full(n_steps + 1, observable.constant_offset)
    for weight, string in observable.terms:
        q = index[string]
        series[0] += weight * initial[q]
        series[1:] += weight * extrapolations[q]
    return series


def observable_covariance(
    observable: ObservableCombination,
    correlators: Sequence[PauliString],
    extrap_cov: np.ndarray,
    n_steps: int,
) -> np.ndarray:
    """Covariance of the observable series; the exact t=0 point is noiseless."""
    index = {string: i for i, string in enumerate(correlators)}
    weights = np.zeros((n_steps + 1, len(correlators) * n_steps))
    for weight, string in observable.terms:
        if string not in index:
            raise ValueError(f"observable string {string.token()!r} not measured")
        q = index[string]
        for s in range(1, n_steps + 1):
            weights[s, q * n_steps + (s - 1)] = weight
    return weights @ extrap_cov @ weights.T


@dataclass
class MitigationOutput:
    """Problem, solution with propagated std, and the estimate covariance."""

    problem: MitigationProblem
    result: MitigationResult
    covariance: np.ndarray


def run_mitigation(
    measurements: MeasurementSet,
    subset: HierarchySubset | None,
    degree: int,
    dt: float,
    g_weight: float = 1.0,
) -> MitigationOutput:
    """Assemble, solve and propagate uncertainties in one call."""
    problem = assemble(measurements, subset, degree, dt, g_weight)
    result = solve(problem)
    covariance = extrapolation_covariance(result, measurement_variances(measurements))
    std = propagate_std(covariance, result.extrapolations.shape)
    return MitigationOutput(problem, replace(result, std=std), covariance)
