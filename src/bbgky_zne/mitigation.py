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
matrix per step (every correlator of a step is measured at the same error
levels), the measured values, and the constraint rows G, g over the Q * N
constant terms. The dense matrix and right-hand side are views of a
:class:`MitigationProblem` that are built on first use, by
``bbgky-zne mitigate --dump-matrix`` and by the checks that compare the
reduced solve with a direct solve of the paper form.

:func:`solve` never forms that matrix. The non-constant coefficients of
block (q, s) appear only in the block's own Vandermonde rows V, so they are
eliminated in closed form (separable least squares, Golub & Pereyra, SIAM J.
Numer. Anal. 10:413, 1973): for a fixed constant term c the block's best
residual is ``w (c - c_hat)^2`` plus a constant, where ``c_hat`` is the plain
ZNE estimate of the block and ``w = 1 / [(V^T V)^-1]_dd``. Both come from one
QR factorisation of the step's V. What remains is the weighted fit of the
Q * N constant terms alone,

    [diag(sqrt w); G] c ~= [sqrt(w) c_hat; g].

With ``u = sqrt(w) (c - c_hat)`` it becomes the minimum-norm solution of
``[G diag(w)^-1/2, I] [u; v] = g - G c_hat``, one Householder QR of a
(Q N + m) x m matrix for m constraint rows. Its orthogonal factor is only
applied, never formed: it is kept as the m reflectors and used in compact WY
form, Q = I - V T V^T (Schreiber & Van Loan, SIAM J. Sci. Stat. Comput.
10:53, 1989). Without constraint rows the fit is c = c_hat, which is
:func:`zne_baseline`.

Each c_hat is linear in its own block's data and the blocks are independent,
so the shot-noise covariance of c is exactly ``C = J diag(var c_hat) J^T``
with J = dc/dc_hat = D^-1 Y Y^T D, D = diag(sqrt w), where Y is the top-right
Q N x Q N block of the QR's orthogonal factor. Neither Y nor C is formed:
:class:`Sensitivity` keeps J as the reflectors, and
:class:`EstimateCovariance` multiplies k weight rows W through it in
O(k m Q N), so a report reads W C W^T of its observables and ``mitigate``
the diagonal of C (:func:`propagate_std`) without any Q N x Q N array.

A step with fewer than d + 1 distinct error levels has no unique fit, and
the solve raises :class:`~bbgky_zne.errors.IllPosedFitError`. Otherwise the
paper-form problem has full column rank and its least-squares solution is
the one :func:`solve` returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import IllPosedFitError, ResourceLimitError
from .hierarchy import BbgkyEquation, HierarchySubset
from .pauli import ObservableCombination, PauliString
from .simulator import MeasurementSet

#: relative singular-value cutoff for pseudoinverse and ``lstsq`` solves of
#: the paper-form problem, where one is made to check the reduced solve
RCOND = 1e-10
#: bytes of the arrays one :func:`run_mitigation` may build
#: (:attr:`ProblemLayout.solve_bytes`). The Schwinger chain at 20 steps needs
#: 0.22 GiB at n = 6, r = 2, 0.91 GiB at n = 8, r = 2 and 16.5 GiB at
#: n = 8, r = 3.
SOLVE_MAX_BYTES = 2**31
#: rows of the identity that :func:`propagate_std` multiplies through the
#: sensitivity at once, so its arrays stay at this many rows by Q * N
STD_BLOCK_ROWS = 256


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

    @property
    def solve_bytes(self) -> int:
        """Bytes of the arrays :func:`run_mitigation` holds at its peak.

        With m constraint rows that is the QR of :func:`solve`: G (m x Q N),
        the matrix A = [G D^-1, I]^T ((Q N + m) x m) and the copy that
        ``np.linalg.qr`` factors, beside the plain fit's gains
        (Q N x levels), estimates and weights. Without constraint rows it is
        the plain covariance: the gains, the point variances and the squared
        gains, and three Q N vectors. LAPACK's own working copy of A inside
        the QR is not counted; it adds (Q N + m) x m floats to the RSS."""
        blocks = self.n_correlators * self.n_steps
        rows = self.n_equations * (self.n_steps + 1)
        if not rows:
            return 8 * 3 * blocks * (self.n_levels + 1)
        return 8 * (rows * blocks + 2 * (blocks + rows) * rows + blocks * (self.n_levels + 2))

    def extraction_index(self, q: int, s: int) -> int:
        """Flat column of the mitigated estimate of correlator q at step s."""
        return (q * self.n_steps + (s - 1)) * (self.degree + 1) + self.degree

    def extraction_indices(self) -> np.ndarray:
        base = np.arange(self.n_correlators * self.n_steps) * (self.degree + 1)
        return (base + self.degree).reshape(self.n_correlators, self.n_steps)


@dataclass(frozen=True)
class MitigationProblem:
    """Block form of the joint least-squares problem.

    ``vander[s - 1]`` is the descending-power Vandermonde matrix of step s,
    shape (N, levels, d + 1), which every block b = q * N + s - 1 of that step
    shares, and ``data[b]`` the block's measured values. ``constraints`` is G,
    one row per (equation, time point) over the Q * N constant terms, and
    ``rhs`` is g; both are already scaled by ``g_weight``. :attr:`matrix` and
    :attr:`target` scatter these blocks into the dense paper form on first
    use.
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
            ("vander", (layout.n_steps, layout.n_levels, layout.degree + 1)),
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
        n_steps, n_levels, width = self.vander.shape
        n_blocks = layout.n_correlators * n_steps
        matrix = np.zeros((layout.n_rows, layout.n_cols))
        top = matrix[: n_blocks * n_levels].reshape(n_blocks, n_levels, n_blocks, width)
        blocks = np.arange(n_blocks)
        top[blocks, :, blocks, :] = self.vander[blocks % n_steps]
        matrix[n_blocks * n_levels :, layout.extraction_indices().ravel()] = self.constraints
        return matrix

    @cached_property
    def target(self) -> np.ndarray:
        """Dense paper-form right-hand side: measured values, then g."""
        return np.concatenate([self.data.ravel(), self.rhs])


@dataclass(frozen=True)
class Sensitivity:
    """The constrained fit's Jacobian J = dc/dc_hat = D^-1 Y Y^T D, factored.

    J acts on the flattened (q-major) estimates; D = diag(sqrt w) and
    Y = I[:QN, m:] - V[:QN] T V[m:]^T is the top-right block of the
    orthogonal factor of :func:`solve`'s QR. It is kept as that QR's m
    Householder reflectors V, ``top = V[:QN]`` and ``bottom = V[m:]``, and
    the upper triangular m x m factor ``t`` = T of their compact WY form.
    """

    root_w: np.ndarray
    top: np.ndarray
    bottom: np.ndarray
    t: np.ndarray

    def apply(self, weights: np.ndarray) -> np.ndarray:
        """``weights @ J`` for k weight rows over the Q * N estimates."""
        scaled = weights / self.root_w
        return self._apply(scaled, scaled @ self.top)

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Rows ``start:stop`` of J."""
        scaled = np.eye(stop - start, self.root_w.size, start) / self.root_w
        return self._apply(scaled, self.top[start:stop] / self.root_w[start:stop, None])

    def _apply(self, scaled: np.ndarray, projected: np.ndarray) -> np.ndarray:
        """``(W D^-1) Y Y^T D`` from ``scaled`` = W D^-1 and
        ``projected`` = W D^-1 V[:QN], in O(k m Q N): with S = I[:QN, m:],
        first B = W D^-1 S - (W D^-1 V[:QN]) T V[m:]^T, then
        B Y^T = B S^T - (B V[m:]) T^T V[:QN]^T. Right-multiplying by S moves
        columns m: to :QN-m, by S^T back; both are empty once m >= Q N,
        where the constraints pin every estimate."""
        m = self.t.shape[0]
        shift = max(self.root_w.size - m, 0)
        left = (projected @ self.t) @ self.bottom.T
        np.negative(left, out=left)
        left[:, :shift] += scaled[:, m:]
        out = ((left @ self.bottom) @ self.t.T) @ self.top.T
        np.negative(out, out=out)
        out[:, m:] += left[:, :shift]
        out *= self.root_w
        return out


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
    sensitivity: Sensitivity | None


@dataclass(frozen=True)
class EstimateCovariance:
    """Shot-noise covariance C = J P J^T of the flattened (q-major)
    estimates, factored: ``root_plain`` is the square root of the diagonal P
    of the plain estimates' variances, and J the fit's sensitivity, the
    identity when it is ``None``."""

    root_plain: np.ndarray
    sensitivity: Sensitivity | None

    def factor(self, weights: np.ndarray) -> np.ndarray:
        """K with W C W^T = K K^T, for k rows W over the Q * N estimates. The
        largest array it builds is k x Q N."""
        if self.sensitivity is not None:
            weights = self.sensitivity.apply(weights)
        return weights * self.root_plain


def check_solve_size(layout: ProblemLayout) -> None:
    """Raise :class:`~bbgky_zne.errors.ResourceLimitError` when a problem of
    this layout needs more than :data:`SOLVE_MAX_BYTES`, before anything of
    that size is allocated."""
    if layout.solve_bytes > SOLVE_MAX_BYTES:
        raise ResourceLimitError(
            f"the mitigation of {layout.n_correlators} correlators over "
            f"{layout.n_steps} steps with {layout.n_equations} equations needs "
            f"{layout.solve_bytes / 2**30:.1f} GiB, over the cap of "
            f"{SOLVE_MAX_BYTES / 2**30:.1f} GiB"
        )


def check_degree(degree: int, n_levels: int) -> int:
    """The degree as an int. A step has at most ``n_levels`` distinct error
    levels, so a degree they cannot support raises :class:`IllPosedFitError`
    here, before the Vandermonde blocks of (degree + 1) columns are built."""
    if int(degree) != degree or degree < 0:
        raise ValueError(f"degree must be a non-negative integer, got {degree}")
    if degree + 1 > n_levels:
        raise IllPosedFitError(
            f"step 1: {n_levels} error levels cannot support degree {int(degree)}"
        )
    return int(degree)


def _vandermonde(measurements: MeasurementSet, degree: int) -> np.ndarray:
    """Descending-power Vandermonde matrix of every step, shape
    (N, levels, degree + 1)."""
    return measurements.eps[..., None] ** np.arange(degree, -1, -1)


@lru_cache(maxsize=8)
def _derivative_weights(n_steps: int, dt: float) -> np.ndarray:
    """Read-only ``weights[step, s]`` of sample s in the Bernstein derivative
    at time point step. Cached, because every fit of a scan builds the same
    table of (n_steps + 1)**2 :func:`bernstein_deriv_weight` calls."""
    grid = range(n_steps + 1)
    weights = np.array(
        [[bernstein_deriv_weight(s, n_steps, step / n_steps, dt) for s in grid] for step in grid]
    )
    weights.flags.writeable = False
    return weights


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
    degree = check_degree(degree, measurements.n_levels)
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
    weights = _derivative_weights(n_steps, dt)
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


def _fit_blocks(vander: np.ndarray, data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Plain polynomial fit of every block to eps = 0.

    ``vander`` holds one descending-power Vandermonde matrix per step, shape
    (N, levels, degree + 1), and ``data`` the measured values of every block,
    shape (Q * N, levels); block b belongs to step ``b % N + 1``. Each step is
    factored once. Returns the constant terms and the gains h, shape
    (Q * N, levels), with ``estimate = h @ data``. Raises
    :class:`IllPosedFitError` when a step has fewer than ``degree + 1``
    distinct error levels.
    """
    n_steps, n_levels, width = vander.shape
    degree = width - 1
    if degree >= 1:
        eps = np.sort(vander[:, :, -2], axis=1)
        distinct = 1 + np.count_nonzero(np.diff(eps, axis=1) > 1e-12, axis=1)
        short = np.flatnonzero(distinct < degree + 1)
        if short.size:
            s = int(short[0])
            raise IllPosedFitError(
                f"step {s + 1}: {distinct[s]} distinct error levels "
                f"cannot support degree {degree}"
            )
    # V = QR with the constant column last: the constant term of the fit is
    # Q[:, d] . y / R[d, d], and [(V^T V)^-1]_dd = 1 / R[d, d]^2
    basis, upper = np.linalg.qr(vander)
    step_gains = basis[:, :, degree] / upper[:, degree, degree, None]
    gains = np.broadcast_to(step_gains, (data.shape[0] // n_steps, n_steps, n_levels))
    gains = gains.reshape(data.shape)
    return np.einsum("bl,bl->b", gains, data), gains


def solve(problem: MitigationProblem) -> MitigationResult:
    """Least-squares zero-noise estimates of an :func:`assemble` problem.

    Solves the reduced weighted fit described in the module docstring; the
    result equals the paper-form least-squares solution.
    """
    layout = problem.layout
    estimates, gains = _fit_blocks(problem.vander, problem.data)
    shape = (layout.n_correlators, layout.n_steps)
    gains_out = gains.reshape(*shape, layout.n_levels)
    constraints = problem.constraints
    if not constraints.any():
        return MitigationResult(estimates.reshape(shape), gains_out, None)

    root_w = 1.0 / np.linalg.norm(gains, axis=1)
    n_blocks, n_rows = root_w.size, constraints.shape[0]
    # min ||u||^2 + ||G D^-1 u - (g - G c_hat)||^2 with D = diag(sqrt w) is the
    # minimum-norm solution of [G D^-1, I] z = g - G c_hat. With the QR of that
    # matrix's transpose A, z = Q[:, :m] R^-T (g - G c_hat), and
    # dc/dc_hat = D^-1 (I - X X^T) D = D^-1 Y Y^T D for the top rows X, Y of
    # Q[:, :m], Q[:, m:]: a product without cancellation where the constraints
    # pin an estimate. Q is never formed but kept as Householder reflectors V in
    # compact WY form, Q = I - V T V^T, with T^-1 = striu(V^T V) + diag(1 / tau)
    # (Puglisi 1992). That needs every tau > 0, and here each tau lies in
    # [1, 2]: LAPACK sets tau = 0 only for a column that is zero below its
    # diagonal, but column i of A keeps the identity's 1 in row Q N + i, where
    # every earlier reflector is zero. T is formed once: every product with
    # it is then a matrix product, where an LU solve per product cost more
    # than the products with V.
    packed, tau = np.linalg.qr(
        np.vstack([(constraints / root_w).T, np.eye(n_rows)]), mode="raw"
    )
    # LAPACK's layout: R on and above the diagonal, V (unit diagonal) below;
    # V takes over R's storage
    reflectors = packed.T
    head = reflectors[:n_rows]
    upper = np.triu(head)
    head[...] = np.tril(head, -1)
    np.fill_diagonal(head, 1.0)
    t_inv = np.triu(reflectors.T @ reflectors, 1)
    np.fill_diagonal(t_inv, 1.0 / tau)
    t = np.linalg.inv(t_inv)
    z = np.linalg.solve(upper.T, problem.rhs - constraints @ estimates)
    # X z = ([z; 0] - V T V^T [z; 0])[:QN]
    correction = reflectors[:n_blocks] @ (t @ (head.T @ z))
    np.negative(correction, out=correction)
    correction[: min(n_rows, n_blocks)] += z[:n_blocks]
    extrapolations = estimates + correction / root_w
    sensitivity = Sensitivity(root_w, reflectors[:n_blocks], reflectors[n_rows:], t)
    return MitigationResult(extrapolations.reshape(shape), gains_out, sensitivity)


def zne_baseline(measurements: MeasurementSet, degree: int) -> np.ndarray:
    """Independent per-(q, s) polynomial extrapolations to eps = 0.

    This is the joint fit without constraint rows. Requires at least
    ``degree + 1`` distinct error levels in every step column.
    """
    degree = check_degree(degree, measurements.n_levels)
    estimates, _ = _fit_blocks(
        _vandermonde(measurements, degree),
        measurements.values.reshape(-1, measurements.n_levels),
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
) -> EstimateCovariance:
    """Covariance of the extracted estimates, flattened (q-major), in
    factored form.

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
    return EstimateCovariance(np.sqrt(plain), result.sensitivity)


def propagate_std(covariance: EstimateCovariance, shape: tuple[int, int]) -> np.ndarray:
    """Standard deviation of each extracted estimate, the square root of the
    covariance diagonal, reshaped to (correlators, steps).

    With a sensitivity it multiplies rows of the identity through it,
    :data:`STD_BLOCK_ROWS` at a time: O(Q N^2 m) in all."""
    sensitivity = covariance.sensitivity
    if sensitivity is None:
        return covariance.root_plain.reshape(shape)
    n_blocks = covariance.root_plain.size
    variances = np.empty(n_blocks)
    for start in range(0, n_blocks, STD_BLOCK_ROWS):
        stop = min(start + STD_BLOCK_ROWS, n_blocks)
        factor = sensitivity.rows(start, stop)
        factor *= covariance.root_plain
        variances[start:stop] = np.einsum("ij,ij->i", factor, factor)
    return np.sqrt(variances).reshape(shape)


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
    observables: Sequence[ObservableCombination],
    correlators: Sequence[PauliString],
    covariance: EstimateCovariance,
    n_steps: int,
) -> np.ndarray:
    """Covariance of each observable's series, shape (observables, N + 1,
    N + 1); the exact t=0 point is noiseless."""
    index = {string: i for i, string in enumerate(correlators)}
    weights = np.zeros((len(observables), n_steps + 1, len(correlators) * n_steps))
    steps = np.arange(n_steps)
    for o, observable in enumerate(observables):
        for weight, string in observable.terms:
            if string not in index:
                raise ValueError(f"observable string {string.token()!r} not measured")
            weights[o, 1 + steps, index[string] * n_steps + steps] = weight
    factor = covariance.factor(weights.reshape(-1, weights.shape[-1])).reshape(weights.shape)
    return factor @ factor.transpose(0, 2, 1)


@dataclass
class MitigationOutput:
    """Problem, solution, and the factored covariance of the estimates."""

    problem: MitigationProblem
    result: MitigationResult
    covariance: EstimateCovariance


def run_mitigation(
    measurements: MeasurementSet,
    subset: HierarchySubset | None,
    degree: int,
    dt: float,
    g_weight: float = 1.0,
) -> MitigationOutput:
    """Assemble, solve and propagate uncertainties in one call.

    Raises :class:`~bbgky_zne.errors.ResourceLimitError` first when the
    problem's arrays would exceed :data:`SOLVE_MAX_BYTES`.
    """
    n_equations = 0 if subset is None else subset.n_equations
    check_solve_size(
        ProblemLayout(
            measurements.n_correlators,
            measurements.n_steps,
            measurements.n_levels,
            degree,
            n_equations,
        )
    )
    problem = assemble(measurements, subset, degree, dt, g_weight)
    result = solve(problem)
    covariance = extrapolation_covariance(result, measurement_variances(measurements))
    return MitigationOutput(problem, result, covariance)
