"""Independent reference implementations used to check the package.

Everything here is deliberately written from first principles with a
different mechanism than the library code: dense matrix algebra instead of
symbolic rules, explicit bit loops instead of einsum, RK4 integration
instead of eigendecomposition, and a hand-rolled union-find instead of a
graph library.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np

SIGMA = {
    0: np.eye(2, dtype=complex),
    1: np.array([[0, 1], [1, 0]], dtype=complex),
    2: np.array([[0, -1j], [1j, 0]], dtype=complex),
    3: np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_string(axes: tuple[int, ...]) -> np.ndarray:
    """Tensor product of single-site Pauli matrices; axes[k] acts on site k+1
    (leftmost factor)."""
    out = np.array([[1.0 + 0.0j]])
    for axis in axes:
        out = np.kron(out, SIGMA[axis])
    return out


def axes_of(factors: tuple[tuple[int, int], ...], n_qubits: int) -> tuple[int, ...]:
    axes = [0] * n_qubits
    for site, axis in factors:
        axes[site - 1] = axis
    return tuple(axes)


def dense_hamiltonian(n_qubits: int, h: np.ndarray, V: np.ndarray) -> np.ndarray:
    dim = 2**n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(n_qubits):
        for mu in range(3):
            if h[i, mu]:
                axes = [0] * n_qubits
                axes[i] = mu + 1
                out += 0.5 * h[i, mu] * dense_string(tuple(axes))
    for i in range(n_qubits):
        for j in range(i + 1, n_qubits):
            for mu in range(3):
                for nu in range(3):
                    if V[i, j, mu, nu]:
                        axes = [0] * n_qubits
                        axes[i] = mu + 1
                        axes[j] = nu + 1
                        out += 0.25 * V[i, j, mu, nu] * dense_string(tuple(axes))
    return out


def all_axes(n_qubits: int, include_identity: bool = False):
    for axes in product(range(4), repeat=n_qubits):
        if not include_identity and not any(axes):
            continue
        yield axes


def pauli_coefficients(matrix: np.ndarray, n_qubits: int) -> dict[tuple[int, ...], complex]:
    """Expansion coefficients of a matrix in the Pauli-string basis,
    coeff = Tr(P M) / 2^n."""
    dim = 2**n_qubits
    out = {}
    for axes in all_axes(n_qubits, include_identity=True):
        coeff = np.trace(dense_string(axes) @ matrix) / dim
        if abs(coeff) > 1e-13:
            out[axes] = complex(coeff)
    return out


def equation_coefficients(
    n_qubits: int, h: np.ndarray, V: np.ndarray, axes: tuple[int, ...]
) -> dict[tuple[int, ...], float]:
    """Right-hand side of d/dt<P> = <i [H, P]> in the Pauli basis."""
    H = dense_hamiltonian(n_qubits, h, V)
    P = dense_string(axes)
    rhs = 1j * (H @ P - P @ H)
    out = {}
    for key, coeff in pauli_coefficients(rhs, n_qubits).items():
        assert abs(coeff.imag) < 1e-12
        out[key] = float(coeff.real)
    return out


def downstream_axes(
    n_qubits: int, h: np.ndarray, V: np.ndarray, axes: tuple[int, ...], tol: float = 1e-12
) -> set[tuple[int, ...]]:
    return {
        key
        for key, coeff in equation_coefficients(n_qubits, h, V, axes).items()
        if abs(coeff) >= tol
    }


def inverse_connection_map(
    n_qubits: int, h: np.ndarray, V: np.ndarray
) -> dict[tuple[int, ...], set[tuple[int, ...]]]:
    """Brute-force inversion: every non-identity string's dense equation is
    expanded once, then transposed into a target -> sources map."""
    out: dict[tuple[int, ...], set[tuple[int, ...]]] = {
        axes: set() for axes in all_axes(n_qubits)
    }
    for axes in all_axes(n_qubits):
        for target in downstream_axes(n_qubits, h, V, axes):
            out[target].add(axes)
    return out


def component_sizes(n_qubits: int, h: np.ndarray, V: np.ndarray) -> list[int]:
    """Connected-component sizes of the hierarchy via union-find over the
    dense equations of every string (the identity is its own component)."""
    strings = list(all_axes(n_qubits, include_identity=True))
    index = {axes: k for k, axes in enumerate(strings)}
    parent = list(range(len(strings)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for axes in strings:
        for other in downstream_axes(n_qubits, h, V, axes):
            union(index[axes], index[other])
    sizes: dict[int, int] = {}
    for k in range(len(strings)):
        root = find(k)
        sizes[root] = sizes.get(root, 0) + 1
    return sorted(sizes.values())


def partial_trace(rho: np.ndarray, keep_out: list[int], n_qubits: int) -> np.ndarray:
    """Trace out the (1-based) sites in keep_out with explicit bit loops."""
    kept = [s for s in range(1, n_qubits + 1) if s not in keep_out]
    dim_kept = 2 ** len(kept)
    out = np.zeros((dim_kept, dim_kept), dtype=complex)

    def full_index(kept_bits: tuple[int, ...], traced_bits: tuple[int, ...]) -> int:
        bits = [0] * n_qubits
        for site, b in zip(kept, kept_bits):
            bits[site - 1] = b
        for site, b in zip(keep_out, traced_bits):
            bits[site - 1] = b
        return int("".join(str(b) for b in bits), 2)

    for a in product((0, 1), repeat=len(kept)):
        for b in product((0, 1), repeat=len(kept)):
            total = 0.0 + 0.0j
            for t in product((0, 1), repeat=len(keep_out)):
                total += rho[full_index(a, t), full_index(b, t)]
            out[int("".join(map(str, a)), 2), int("".join(map(str, b)), 2)] = total
    return out


def depolarize_reference(
    rho: np.ndarray, sites: list[int], p: float, n_qubits: int
) -> np.ndarray:
    """(1-p) rho + p * (I/d on sites) ⊗ Tr_sites(rho), rebuilt by bit loops."""
    marginal = partial_trace(rho, sites, n_qubits)
    kept = [s for s in range(1, n_qubits + 1) if s not in sites]
    dim = 2**n_qubits
    mixed = np.zeros((dim, dim), dtype=complex)
    d_s = 2 ** len(sites)

    def full_index(kept_bits, site_bits) -> int:
        bits = [0] * n_qubits
        for site, b in zip(kept, kept_bits):
            bits[site - 1] = b
        for site, b in zip(sites, site_bits):
            bits[site - 1] = b
        return int("".join(str(b) for b in bits), 2)

    for a in product((0, 1), repeat=len(kept)):
        for b in product((0, 1), repeat=len(kept)):
            value = marginal[int("".join(map(str, a)), 2), int("".join(map(str, b)), 2)]
            for t in product((0, 1), repeat=len(sites)):
                mixed[full_index(a, t), full_index(b, t)] += value / d_s
    return (1.0 - p) * rho + p * mixed


def rk4_expectations(
    H: np.ndarray, psi0: np.ndarray, times: list[float], observables: list[np.ndarray]
) -> np.ndarray:
    """Schrodinger integration with fixed-step RK4, independent of eigh."""
    out = np.empty((len(observables), len(times)))
    step = 2e-4

    def deriv(psi):
        return -1j * (H @ psi)

    psi = psi0.astype(complex)
    t = 0.0
    for t_index, t_target in enumerate(times):
        while t < t_target - 1e-12:
            dt = min(step, t_target - t)
            k1 = deriv(psi)
            k2 = deriv(psi + 0.5 * dt * k1)
            k3 = deriv(psi + 0.5 * dt * k2)
            k4 = deriv(psi + dt * k3)
            psi = psi + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += dt
        for o_index, obs in enumerate(observables):
            out[o_index, t_index] = float(np.vdot(psi, obs @ psi).real)
    return out


def bernstein_fit_value(samples: np.ndarray, x: float) -> float:
    degree = len(samples) - 1
    return float(
        sum(
            samples[s] * math.comb(degree, s) * x**s * (1.0 - x) ** (degree - s)
            for s in range(degree + 1)
        )
    )


def bernstein_fit_derivative(samples: np.ndarray, x: float, horizon: float) -> float:
    """Central difference of the fit in physical time t = x * horizon."""
    hx = 1e-6
    upper = bernstein_fit_value(samples, x + hx)
    lower = bernstein_fit_value(samples, x - hx)
    return (upper - lower) / (2.0 * hx * horizon)


def normal_equation_solve(matrix: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Least squares via the normal equations; valid for full column rank."""
    gram = matrix.T @ matrix
    return np.linalg.solve(gram, matrix.T @ target)


def paper_form_solve(problem, measurements) -> tuple[np.ndarray, np.ndarray]:
    """Zero-noise estimates and their shot-noise covariance from one dense
    pseudoinverse of the whole paper-form problem (Vandermonde and constraint
    rows together), the minimum-norm least-squares solution.

    Constraint rows carry no noise; a measured point carries the binomial
    variance ``(1 - e^2) / shots``, or none with infinite shots.
    """
    from bbgky_zne.mitigation import RCOND

    layout = problem.layout
    operator = np.linalg.pinv(problem.matrix, rcond=RCOND)
    rows = operator[layout.extraction_indices().ravel()]
    # the measured rows come first, in (q, s, level) order
    variances = np.zeros(layout.n_rows)
    if measurements.shots is not None:
        for row, e in enumerate(measurements.values.ravel()):
            variances[row] = (1.0 - e * e) / measurements.shots
    extrapolations = (rows @ problem.target).reshape(layout.n_correlators, layout.n_steps)
    return extrapolations, (rows * variances) @ rows.T


def exact_solution_operator(matrix: np.ndarray) -> list[list[Fraction]]:
    """``(A^T A)^-1 A^T`` in exact rational arithmetic, by Gauss-Jordan
    elimination on the normal equations; valid for full column rank."""
    a = [[Fraction(float(v)) for v in row] for row in matrix]
    n_rows, n_cols = len(a), len(a[0])
    gram = [[sum(a[k][i] * a[k][j] for k in range(n_rows)) for j in range(n_cols)] for i in range(n_cols)]
    work = [gram[i] + [a[k][i] for k in range(n_rows)] for i in range(n_cols)]
    for col in range(n_cols):
        pivot = next(r for r in range(col, n_cols) if work[r][col] != 0)
        work[col], work[pivot] = work[pivot], work[col]
        lead = work[col][col]
        work[col] = [v / lead for v in work[col]]
        for r in range(n_cols):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [v - factor * p for v, p in zip(work[r], work[col])]
    return [row[n_cols:] for row in work]
