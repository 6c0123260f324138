"""Independent reference implementations used to check the package.

Everything here is deliberately written from first principles with a
different mechanism than the library code: dense matrix algebra instead of
symbolic rules, explicit bit loops instead of einsum, RK4 integration
instead of eigendecomposition, and a hand-rolled union-find instead of
growing components along equations.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

SIGMA = {
    0: np.eye(2, dtype=complex),
    1: np.array([[0, 1], [1, 0]], dtype=complex),
    2: np.array([[0, -1j], [1j, 0]], dtype=complex),
    3: np.array([[1, 0], [0, -1]], dtype=complex),
}


@lru_cache(maxsize=None)
def dense_string(axes: tuple[int, ...]) -> np.ndarray:
    """Tensor product of single-site Pauli matrices; axes[k] acts on site k+1
    (leftmost factor). Memoized, so the result is read-only."""
    out = np.array([[1.0 + 0.0j]])
    for axis in axes:
        out = np.kron(out, SIGMA[axis])
    out.flags.writeable = False
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


def dense_pauli(string, n_qubits: int) -> np.ndarray:
    """Dense matrix of a :class:`~bbgky_zne.pauli.PauliString`, site 1 as
    the leftmost factor; read-only, as :func:`dense_string`."""
    if string.max_site() > n_qubits:
        raise ValueError(f"string {string.token()!r} does not fit on {n_qubits} qubits")
    return dense_string(axes_of(string.factors, n_qubits))


def dense_combination(combo, n_qubits: int) -> np.ndarray:
    """Dense matrix of an :class:`~bbgky_zne.pauli.ObservableCombination`."""
    out = combo.constant_offset * np.eye(2**n_qubits, dtype=complex)
    for weight, string in combo.terms:
        out += weight * dense_pauli(string, n_qubits)
    return out


def dense_terms(ham) -> np.ndarray:
    """Dense ``sum c P`` over :attr:`~bbgky_zne.hierarchy.SpinHamiltonian.terms`."""
    out = np.zeros((2**ham.n_qubits,) * 2, dtype=complex)
    for string, c in ham.terms:
        out += c * dense_pauli(string, ham.n_qubits)
    return out


def dense_exact_reference(ham, label: str, times, observables) -> np.ndarray:
    """Expectations ``[observable, time]`` of the Pauli strings or
    combinations ``observables`` after evolving the basis state ``label``
    under the whole 2^n x 2^n :func:`dense_terms`, diagonalized once."""
    n = ham.n_qubits
    energies, modes = np.linalg.eigh(dense_terms(ham))
    coeffs = modes[int(label, 2)].conj()
    matrices = [
        dense_pauli(obs, n) if hasattr(obs, "factors") else dense_combination(obs, n)
        for obs in observables
    ]
    out = np.empty((len(matrices), len(times)))
    for t_index, t in enumerate(times):
        psi = modes @ (np.exp(-1j * energies * t) * coeffs)
        for o_index, matrix in enumerate(matrices):
            out[o_index, t_index] = float(np.vdot(psi, matrix @ psi).real)
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


def exp_pauli(axes: tuple[int, ...], angle: float) -> np.ndarray:
    """Dense ``exp(-i * angle * P)`` of the string with these axes, using ``P**2 = 1``."""
    return math.cos(angle) * np.eye(2 ** len(axes)) - 1j * math.sin(angle) * dense_string(axes)


def factor_unitary(factor, n_qubits: int) -> np.ndarray:
    """Dense unitary of a Trotter factor on n_qubits."""
    return exp_pauli(axes_of(factor.string.factors, n_qubits), factor.angle)


def heisenberg_transfer(factor) -> np.ndarray:
    """Pauli-transfer matrix ``R[a, b] = Tr(sigma_b U^dagger sigma_a U) / 2^k``
    of a factor on its own k sites, from dense matrices, shaped ``(4,) * 2k``."""
    local = tuple(axis for _, axis in factor.string.factors)
    k = len(local)
    unitary = exp_pauli(local, factor.angle)
    out = np.empty((4,) * (2 * k))
    for a in all_axes(k, include_identity=True):
        moved = unitary.conj().T @ dense_string(a) @ unitary
        for b in all_axes(k, include_identity=True):
            out[a + b] = np.trace(dense_string(b) @ moved).real / 2**k
    return out


def apply_local_transfer(r: np.ndarray, transfer: np.ndarray, sites) -> np.ndarray:
    """``r'_a = sum_b R[a_S, b_S] r_b`` over the strings b that agree with a
    off the (1-based) sites S, for a ``(4,) * n`` tensor r and a local
    transfer matrix R shaped ``(4,) * 2k``: one slice update per pair of
    local strings."""

    def on_sites(local):
        index = [slice(None)] * r.ndim
        for site, axis in zip(sites, local):
            index[site - 1] = axis
        return tuple(index)

    out = np.zeros_like(r)
    for a in np.ndindex((4,) * len(sites)):
        for b in np.ndindex((4,) * len(sites)):
            out[on_sites(a)] += transfer[a + b] * r[on_sites(b)]
    return out


def bits_index(bits) -> int:
    """Row of a basis state in a dense matrix, first bit most significant;
    the empty register has the one row 0."""
    return int("".join(map(str, bits)) or "0", 2)


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
        return bits_index(bits)

    for a in product((0, 1), repeat=len(kept)):
        for b in product((0, 1), repeat=len(kept)):
            total = 0.0 + 0.0j
            for t in product((0, 1), repeat=len(keep_out)):
                total += rho[full_index(a, t), full_index(b, t)]
            out[bits_index(a), bits_index(b)] = total
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
        return bits_index(bits)

    for a in product((0, 1), repeat=len(kept)):
        for b in product((0, 1), repeat=len(kept)):
            value = marginal[bits_index(a), bits_index(b)]
            for t in product((0, 1), repeat=len(sites)):
                mixed[full_index(a, t), full_index(b, t)] += value / d_s
    return (1.0 - p) * rho + p * mixed


def pauli_vector(rho: np.ndarray, n_qubits: int) -> np.ndarray:
    """Pauli coordinates ``r_a = Tr(rho sigma_a)`` as a real ``(4,) * n``
    tensor, axes[k] on site k+1."""
    out = np.empty((4,) * n_qubits)
    for axes in all_axes(n_qubits, include_identity=True):
        out[axes] = np.trace(rho @ dense_string(axes)).real
    return out


def noisy_campaign_reference(
    n_qubits: int,
    factors: list[tuple[tuple[int, ...], float]],
    bits: tuple[int, ...],
    plan,
    noise,
    correlators: list[tuple[int, ...]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense density-matrix replay of the noisy measurement campaign.

    ``factors`` lists ``(axes, angle)`` in circuit order; each factor is
    ``exp(-i angle P)`` built from the eigendecomposition of its dense string
    and followed by :func:`depolarize_reference` on its sites. A fold pair
    adds two noise-only passes. Readings are dense traces. Random draws
    follow the campaign order: per fold level a generator seeded
    ``[rng_seed, level]``, per step the level shift, then one binomial per
    correlator. Returns ``(values, eps, initial)``.
    """
    unitaries = []
    for axes, angle in factors:
        w, v = np.linalg.eigh(dense_string(axes))
        unitaries.append((v * np.exp(-1j * angle * w)) @ v.conj().T)
    supports = [[k + 1 for k, a in enumerate(axes) if a] for axes, _ in factors]
    rates = [noise.depol_1q if len(s) == 1 else noise.depol_2q for s in supports]
    observables = [dense_string(axes) for axes in correlators]
    damping = [(1.0 - 2.0 * noise.readout_flip) ** sum(map(bool, axes)) for axes in correlators]

    start = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex)
    index = bits_index(bits)
    start[index, index] = 1.0
    n_steps, shots = plan.n_steps, plan.shots
    values = np.empty((len(correlators), n_steps, len(plan.fold_levels)))
    eps = np.empty((n_steps, len(plan.fold_levels)))
    for k, eta in enumerate(plan.fold_levels):
        rng = np.random.default_rng([plan.rng_seed, k])
        rho = start
        done = 0
        for s in range(1, n_steps + 1):
            for unitary, support, rate in zip(unitaries, supports, rates):
                rho = unitary @ rho @ unitary.conj().T
                if rate:
                    rho = depolarize_reference(rho, support, rate, n_qubits)
            pairs = math.floor(eta * s) - done
            done += pairs
            for _ in range(2 * pairs):
                for support, rate in zip(supports, rates):
                    if rate:
                        rho = depolarize_reference(rho, support, rate, n_qubits)

            level = (s + 2.0 * math.floor(eta * s)) / s
            if shots is None:
                eps[s - 1, k] = level
            else:
                width = 1.0 / math.sqrt(shots)
                shift = float(rng.normal(0.0, width))
                eps[s - 1, k] = level + max(-5.0 * width, min(5.0 * width, shift))
            for q, obs in enumerate(observables):
                value = float(np.trace(rho @ obs).real) * damping[q]
                value = min(1.0, max(-1.0, value))
                if shots is None:
                    values[q, s - 1, k] = value
                else:
                    ups = rng.binomial(shots, 0.5 * (1.0 + value))
                    values[q, s - 1, k] = 2.0 * ups / shots - 1.0
    initial = np.array([np.trace(start @ obs).real for obs in observables])
    return values, eps, initial


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


def complete_q_solve(problem) -> tuple[np.ndarray, np.ndarray]:
    """Constrained zero-noise estimates and the sensitivity dc/dc_hat from
    the complete Q of the QR of ``[G D^-1, I]^T``, with D = diag(sqrt w).

    The estimates are ``c_hat + D^-1 X R^-T (g - G c_hat)``, shaped (Q, N),
    and the sensitivity is ``D^-1 Y Y^T D``, where X and Y are the top Q N
    rows of Q[:, :m] and Q[:, m:]. This forms the complete (Q N + m)^2 Q,
    which the library applies as reflectors instead. Requires at least one
    nonzero constraint row.
    """
    from bbgky_zne.mitigation import _fit_blocks

    layout = problem.layout
    estimates, gains = _fit_blocks(problem.vander, problem.data)
    constraints = problem.constraints
    root_w = 1.0 / np.linalg.norm(gains, axis=1)
    n_blocks, n_rows = root_w.size, constraints.shape[0]
    q, upper = np.linalg.qr(
        np.vstack([(constraints / root_w).T, np.eye(n_rows)]), mode="complete"
    )
    x, y = q[:n_blocks, :n_rows], q[:n_blocks, n_rows:]
    residual = problem.rhs - constraints @ estimates
    extrapolations = estimates + x @ np.linalg.solve(upper[:n_rows].T, residual) / root_w
    sensitivity = (y / root_w[:, None]) @ (y.T * root_w)
    return extrapolations.reshape(layout.n_correlators, layout.n_steps), sensitivity


def dense_covariance(covariance) -> np.ndarray:
    """The Q N x Q N covariance C of an
    :class:`~bbgky_zne.mitigation.EstimateCovariance`, as K K^T with K = C's
    factor of the identity."""
    factor = covariance.factor(np.eye(covariance.root_plain.size))
    return factor @ factor.T
