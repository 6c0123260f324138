"""Noisy Trotterized time evolution of small spin registers.

Density matrices are evolved exactly (dense linear algebra), with a uniform
depolarizing channel applied after every Trotter factor and an optional
readout bit-flip folded into each measured expectation. Noise amplification
follows the unitary-folding picture at fractional levels eta: after step s
the cumulative number of inserted identity pairs is ``floor(eta * s)``, and
each pair contributes two extra noisy step-equivalents (noise channels only,
no coherent drift). The resulting error level is

    eps(s, eta) = (s + 2 * floor(eta * s)) / s  ->  2 * eta + 1,

optionally blurred by a Gaussian shift of width ``1/sqrt(shots)`` so that
coinciding levels remain distinguishable to a polynomial fit.

``shots=None`` selects infinite-shot mode: binomial sampling and the level
shift are both bypassed and exact noisy expectations are returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ResourceLimitError
from .hierarchy import SpinHamiltonian
from .pauli import (
    ObservableCombination,
    PauliString,
    basis_expectation,
    dense_pauli,
    parse_basis_label,
)

#: qubit caps of the dense 2^n x 2^n density matrix and eigenbasis
NOISY_MAX_QUBITS = 8
EXACT_MAX_QUBITS = 10


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing rates per factor arity plus a readout bit-flip probability."""

    depol_1q: float = 0.0
    depol_2q: float = 0.0
    readout_flip: float = 0.0

    def __post_init__(self) -> None:
        for name in ("depol_1q", "depol_2q", "readout_flip"):
            value = float(getattr(self, name))
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
            object.__setattr__(self, name, value)

    @property
    def is_zero(self) -> bool:
        return self.depol_1q == 0.0 and self.depol_2q == 0.0 and self.readout_flip == 0.0


@dataclass(frozen=True)
class EvolutionPlan:
    """What to simulate: step grid, Trotter order, fold levels, shot budget."""

    n_steps: int
    total_time: float
    trotter_order: int = 1
    fold_levels: tuple[float, ...] = (0.0,)
    shots: int | None = 10240
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if int(self.n_steps) < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if not 0.0 < float(self.total_time) < math.inf:
            raise ValueError(f"total_time must be positive and finite, got {self.total_time}")
        if self.trotter_order not in (1, 2):
            raise ValueError(f"trotter_order must be 1 or 2, got {self.trotter_order}")
        levels = tuple(float(v) for v in self.fold_levels)
        if not levels or levels[0] != 0.0:
            raise ValueError("fold_levels must start with 0")
        if not all(math.isfinite(v) for v in levels):
            raise ValueError(f"fold_levels must be finite, got {levels}")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError("fold_levels must be strictly increasing")
        if self.shots is not None and int(self.shots) < 1:
            raise ValueError(f"shots must be a positive integer or None, got {self.shots}")
        if int(self.rng_seed) < 0:
            raise ValueError("rng_seed must be non-negative")
        object.__setattr__(self, "n_steps", int(self.n_steps))
        object.__setattr__(self, "total_time", float(self.total_time))
        object.__setattr__(self, "fold_levels", levels)
        object.__setattr__(self, "shots", None if self.shots is None else int(self.shots))
        object.__setattr__(self, "rng_seed", int(self.rng_seed))

    @property
    def dt(self) -> float:
        return self.total_time / self.n_steps

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(s * self.dt for s in range(self.n_steps + 1))


@dataclass(frozen=True)
class TrotterFactor:
    """One product-formula factor ``exp(-i * angle * string)``."""

    string: PauliString
    angle: float


@dataclass
class MeasurementSet:
    """Estimates of correlator expectations on the step/level grid.

    ``values[q, s-1, k]`` estimates correlator q after step s at fold level
    k; ``eps[s-1, k]`` is the (possibly shifted) error level of that column;
    ``initial[q]`` is the exact t=0 value in the prepared basis state.
    """

    correlators: tuple[PauliString, ...]
    values: np.ndarray
    eps: np.ndarray
    initial: np.ndarray
    shots: int | None

    def __post_init__(self) -> None:
        self.correlators = tuple(self.correlators)
        self.values = np.asarray(self.values, dtype=float)
        self.eps = np.asarray(self.eps, dtype=float)
        self.initial = np.asarray(self.initial, dtype=float)
        n_corr = len(self.correlators)
        if self.values.ndim != 3 or self.values.shape[0] != n_corr:
            raise ValueError("values must have shape (n_correlators, n_steps, n_levels)")
        if self.eps.shape != self.values.shape[1:]:
            raise ValueError("eps must have shape (n_steps, n_levels)")
        if self.initial.shape != (n_corr,):
            raise ValueError("initial must have one entry per correlator")
        if not (
            np.isfinite(self.values).all()
            and np.isfinite(self.eps).all()
            and np.isfinite(self.initial).all()
        ):
            raise ValueError("measurement data must be finite")
        if np.any(np.abs(self.values) > 1.0 + 1e-9):
            raise ValueError("estimates must lie in [-1, 1]")
        floor_eps = 1.0 if self.shots is None else 1.0 - 5.0 / math.sqrt(self.shots)
        if np.any(self.eps < floor_eps - 1e-9):
            raise ValueError("error levels below the admissible floor")

    @property
    def n_correlators(self) -> int:
        return len(self.correlators)

    @property
    def n_steps(self) -> int:
        return self.values.shape[1]

    @property
    def n_levels(self) -> int:
        return self.values.shape[2]

    def to_dict(self) -> dict:
        return {
            "correlators": [c.token() for c in self.correlators],
            "shots": self.shots,
            "eps": self.eps.tolist(),
            "values": self.values.tolist(),
            "initial": self.initial.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MeasurementSet":
        shots = data["shots"]
        return cls(
            tuple(PauliString.parse(t) for t in data["correlators"]),
            np.asarray(data["values"], dtype=float),
            np.asarray(data["eps"], dtype=float),
            np.asarray(data["initial"], dtype=float),
            None if shots is None else int(shots),
        )

    def csv_rows(self) -> tuple[list[str], list[tuple]]:
        header = ["correlator", "step", "level", "eps", "value"]
        rows = []
        for q, corr in enumerate(self.correlators):
            for s in range(1, self.n_steps + 1):
                for k in range(self.n_levels):
                    rows.append(
                        (corr.token(), s, k, self.eps[s - 1, k], self.values[q, s - 1, k])
                    )
        return header, rows


def error_level(s: int, eta: float) -> float:
    """Noise amplification factor after step s at fold level eta."""
    if int(s) != s or s < 1:
        raise ValueError(f"step index must be a positive integer, got {s}")
    if eta < 0.0:
        raise ValueError(f"fold level must be >= 0, got {eta}")
    return (s + 2.0 * math.floor(eta * s)) / s


def shifted_error_level(s: int, eta: float, shots: int, rng: np.random.Generator) -> float:
    """Error level with the Gaussian shift used to split coinciding levels.

    The shift has standard deviation ``1/sqrt(shots)`` and is clipped at five
    standard deviations so the result stays above ``1 - 5/sqrt(shots)``.
    """
    if int(shots) < 1:
        raise ValueError(f"shots must be a positive integer, got {shots}")
    width = 1.0 / math.sqrt(shots)
    shift = float(rng.normal(0.0, width))
    shift = max(-5.0 * width, min(5.0 * width, shift))
    return error_level(s, eta) + shift


def fold_schedule(eta: float, n_steps: int) -> list[int]:
    """Identity pairs to insert after each step so that the cumulative
    count after step s is exactly ``floor(eta * s)``."""
    if eta < 0.0:
        raise ValueError(f"fold level must be >= 0, got {eta}")
    pairs = []
    done = 0
    for s in range(1, n_steps + 1):
        target = math.floor(eta * s)
        pairs.append(target - done)
        done = target
    return pairs


def trotter_factors(ham: SpinHamiltonian, dt: float, order: int = 1) -> tuple[TrotterFactor, ...]:
    """Product-formula factors for one time step of length dt.

    First order applies one factor per nonzero coefficient: fields ascending
    by (site, axis), then couplings ascending by (i, j, mu, nu). Second order
    runs the same sequence at half angles followed by its reversal.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    base = []
    for i in range(1, ham.n_qubits + 1):
        for mu in (1, 2, 3):
            h_val = ham.field(i, mu)
            if h_val != 0.0:
                base.append(TrotterFactor(PauliString.single(i, mu), 0.5 * h_val * dt))
    for i in range(1, ham.n_qubits + 1):
        for j in range(i + 1, ham.n_qubits + 1):
            for mu in (1, 2, 3):
                for nu in (1, 2, 3):
                    v = ham.coupling(i, j, mu, nu)
                    if v != 0.0:
                        base.append(
                            TrotterFactor(PauliString(((i, mu), (j, nu))), 0.25 * v * dt)
                        )
    if order == 1:
        return tuple(base)
    half = [TrotterFactor(f.string, 0.5 * f.angle) for f in base]
    return tuple(half + half[::-1])


def factor_unitary(factor: TrotterFactor, n_qubits: int) -> np.ndarray:
    """Dense ``exp(-i * angle * P)`` using ``P**2 = 1``."""
    pauli = dense_pauli(factor.string, n_qubits)
    dim = pauli.shape[0]
    return math.cos(factor.angle) * np.eye(dim) - 1j * math.sin(factor.angle) * pauli


def depolarize(rho: np.ndarray, sites: Sequence[int], p: float, n_qubits: int) -> np.ndarray:
    """Uniform depolarizing channel on ``sites``: with probability p their
    marginal is replaced by the maximally mixed state."""
    if p == 0.0:
        return rho
    k = len(sites)
    dim_s = 2**k
    tensor = rho.reshape((2,) * (2 * n_qubits))
    ket = [s - 1 for s in sites]
    bra = [n_qubits + s - 1 for s in sites]
    rest = [a for a in range(2 * n_qubits) if a not in set(ket) | set(bra)]
    perm = ket + bra + rest
    moved = np.transpose(tensor, perm).reshape(dim_s, dim_s, -1)
    marginal_traced = np.einsum("iij->j", moved)
    mixed = (np.eye(dim_s, dtype=rho.dtype) / dim_s)[:, :, None] * marginal_traced[None, None, :]
    out = (1.0 - p) * moved + p * mixed
    out = out.reshape((2,) * (2 * n_qubits))
    return np.transpose(out, np.argsort(perm)).reshape(rho.shape)


def sample_estimate(expectation: float, shots: int, rng: np.random.Generator) -> float:
    """Binomial shot-noise model for a +-1-valued measurement."""
    if abs(expectation) > 1.0:
        raise ValueError(f"expectation must lie in [-1, 1], got {expectation}")
    if int(shots) < 1:
        raise ValueError(f"shots must be a positive integer, got {shots}")
    ups = rng.binomial(int(shots), 0.5 * (1.0 + expectation))
    return 2.0 * ups / shots - 1.0


def _basis_density(bits: tuple[int, ...]) -> np.ndarray:
    dim = 2 ** len(bits)
    index = int("".join(str(b) for b in bits), 2)
    rho = np.zeros((dim, dim), dtype=complex)
    rho[index, index] = 1.0
    return rho


def evolve_noisy(
    ham: SpinHamiltonian,
    initial_state: str,
    plan: EvolutionPlan,
    noise: NoiseModel,
    correlators: Sequence[PauliString],
) -> MeasurementSet:
    """Simulate the full measurement campaign for one parameter point.

    For every fold level the register is re-evolved from scratch with its own
    random stream (derived from ``plan.rng_seed`` and the level index), and
    after each step every correlator is estimated. The draw order per step is
    fixed (level shift first, then correlators in order) so runs are
    reproducible regardless of the consumer.
    """
    n = ham.n_qubits
    if n > NOISY_MAX_QUBITS:
        raise ResourceLimitError(
            f"evolve_noisy is capped at {NOISY_MAX_QUBITS} qubits, got {n}"
        )
    correlators = tuple(correlators)
    if not correlators:
        raise ValueError("at least one correlator is required")
    for c in correlators:
        if c.max_site() > n:
            raise ValueError(f"correlator {c.token()!r} does not fit on {n} qubits")
    bits = parse_basis_label(initial_state, n)

    factors = trotter_factors(ham, plan.dt, plan.trotter_order)
    unitaries = [factor_unitary(f, n) for f in factors]
    supports = [f.string.sites for f in factors]
    rates = [noise.depol_1q if len(s) == 1 else noise.depol_2q for s in supports]
    observables = [dense_pauli(c, n) for c in correlators]
    damping = [(1.0 - 2.0 * noise.readout_flip) ** len(c) for c in correlators]

    n_corr, n_steps, n_levels = len(correlators), plan.n_steps, len(plan.fold_levels)
    values = np.empty((n_corr, n_steps, n_levels))
    eps = np.empty((n_steps, n_levels))

    for k, eta in enumerate(plan.fold_levels):
        rng = np.random.default_rng([plan.rng_seed, k])
        rho = _basis_density(bits)
        for s, pairs in enumerate(fold_schedule(eta, n_steps), start=1):
            for unitary, support, rate in zip(unitaries, supports, rates):
                rho = unitary @ rho @ unitary.conj().T
                if rate:
                    rho = depolarize(rho, support, rate, n)
            for _ in range(2 * pairs):
                for support, rate in zip(supports, rates):
                    if rate:
                        rho = depolarize(rho, support, rate, n)

            if plan.shots is None:
                eps[s - 1, k] = error_level(s, eta)
            else:
                eps[s - 1, k] = shifted_error_level(s, eta, plan.shots, rng)
            for q in range(n_corr):
                value = float(np.einsum("ij,ji->", rho, observables[q]).real) * damping[q]
                value = min(1.0, max(-1.0, value))
                if plan.shots is None:
                    values[q, s - 1, k] = value
                else:
                    values[q, s - 1, k] = sample_estimate(value, plan.shots, rng)

    initial = np.array([basis_expectation(c, bits) for c in correlators])
    return MeasurementSet(correlators, values, eps, initial, plan.shots)


def evolve_exact(
    ham: SpinHamiltonian,
    initial_state: str,
    times: Sequence[float],
    observables: Sequence[ObservableCombination | PauliString],
) -> np.ndarray:
    """Noise-free reference expectations via exact diagonalization.

    Returns an array indexed ``[observable, time]``. Bare Pauli strings are
    accepted and treated as weight-1 combinations.
    """
    n = ham.n_qubits
    if n > EXACT_MAX_QUBITS:
        raise ResourceLimitError(
            f"evolve_exact is capped at {EXACT_MAX_QUBITS} qubits, got {n}"
        )
    bits = parse_basis_label(initial_state, n)
    combos = [
        obs if isinstance(obs, ObservableCombination) else ObservableCombination(0.0, ((1.0, obs),))
        for obs in observables
    ]
    matrices = [combo.dense(n) for combo in combos]

    energies, modes = np.linalg.eigh(ham.dense())
    psi0 = np.zeros(2**n, dtype=complex)
    psi0[int("".join(str(b) for b in bits), 2)] = 1.0
    coeffs = modes.conj().T @ psi0

    out = np.empty((len(combos), len(times)))
    for t_index, t in enumerate(times):
        psi = modes @ (np.exp(-1j * energies * t) * coeffs)
        for o_index, matrix in enumerate(matrices):
            out[o_index, t_index] = float(np.vdot(psi, matrix @ psi).real)
    return out
