"""Noisy Trotterized time evolution of small spin registers.

The register state is held in Pauli-transfer form: a real tensor ``r`` of
shape ``(4,) * n`` whose entry ``r[a_1, ..., a_n]`` is the expectation of
the string with axis ``a_i`` on site i (axis 0 is the identity), in the
digit order of :func:`~bbgky_zne.pauli.all_strings`, so that the flat index
of a string is its :func:`~bbgky_zne.pauli.code`. Every Trotter factor
``exp(-i angle P)`` leaves a string a that commutes with P alone and mixes
one that anticommutes with its partner P a, at flat index ``a ^ code(P)``,
through ``cos(2 angle)`` and ``sin(2 angle)``, with the sign of the phase
from :func:`~bbgky_zne.pauli.multiply` (:func:`factor_rotation`), and a uniform
depolarizing channel, applied after every factor, is diagonal:
it damps each string that touches its sites. An optional readout bit-flip is
folded into each measured expectation.

The fold levels of one :func:`evolve_noisy` call share their unitary part,
so the call advances them in groups: one buffer holds the states of a group
of levels (:data:`LEVEL_GROUP_BYTES` sets its size from the state's byte
size), and is reset for each group. Before the first step the call builds
each factor's ``(cos, sin)`` and flip, and one :func:`damping_tensor` per
distinct (support, rate); per group it builds each factor's flipped view of
the buffer, so that three in-place operations rotate every state of the
group. Each level then gets its own channels, noise-only passes and draws,
in the order a lone level would, so the outputs do not depend on the group
size. :func:`depolarize` changes the state it is given in place, as one
product with that tensor. When the tensors would exceed
:data:`DAMPING_TENSOR_BYTES`, each channel instead scales the whole state
and restores the strings it spares. Both forms give the same floats.
Nothing the call builds outlives it.

Noise amplification follows the unitary-folding picture at fractional
levels eta: after step s the cumulative number of inserted identity pairs
is ``floor(eta * s)``, and each pair contributes two extra noisy
step-equivalents (noise channels only, no coherent drift). The resulting
error level is

    eps(s, eta) = (s + 2 * floor(eta * s)) / s  ->  2 * eta + 1,

optionally blurred by a Gaussian shift of width ``1/sqrt(shots)`` so that
coinciding levels remain distinguishable to a polynomial fit.

``shots=None`` selects infinite-shot mode: binomial sampling and the level
shift are both bypassed and exact noisy expectations are returned.

The noise-free reference, :func:`evolve_exact`, never builds a 2^n x 2^n
matrix. A term ``c P`` maps basis state b to ``b ^ x(P)`` with the phase
``1j**|Y| (-1)**|b & z(P)|``, where x = hi ^ lo and z = hi are the bit masks
of P's code (site 1 the most significant bit). Starting from the initial
basis state, the call grows the set of basis states that H's nonzero matrix
elements reach, summing all terms that reach the same state before testing
the sum for zero, and diagonalizes H on that sector only: the charge sector
of C(n, n/2) states for a Schwinger chain, the whole space for a generic H.
:data:`EXACT_MAX_STATES` caps the sector while it grows. The dense 2^n x 2^n
form is a test oracle only.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .errors import ResourceLimitError
from .hierarchy import SpinHamiltonian
from .jsonio import float_array, require_keys, require_type
from .pauli import ObservableCombination, PauliString, code, multiply, parse_basis_label

#: qubit cap of the noisy simulation, whose state holds 4^n reals
NOISY_MAX_QUBITS = 8
#: basis states of the largest sector :func:`evolve_exact` diagonalizes:
#: 2^10, the dimension of a dense 10-qubit eigenbasis, so that no input needs
#: more. A Schwinger chain's sector holds C(n, n/2) states (924 at n = 12).
EXACT_MAX_STATES = 2**10
#: bytes of damping tensors one :func:`evolve_noisy` call may hold. Past it
#: they outgrow a core's cache, and reading a tensor per channel costs more
#: than scaling the whole state and restoring the strings the channel spares.
DAMPING_TENSOR_BYTES = 2**21
#: bytes of state and partner buffers one :func:`evolve_noisy` call may hold
#: to advance fold levels together. The group size is the largest count of
#: levels whose two buffers of ``8 * 4**n`` bytes each fit, and at least one:
#: up to 32 levels at n = 4, 8 at n = 5, 2 at n = 6 and 1 from n = 7 on.
#: Rotating a group at once amortizes the per-call overhead that dominates
#: small registers; at n = 8 two or four levels at once made the call 9-18 %
#: slower, and at n = 6 four levels exceed the call's memory budget.
LEVEL_GROUP_BYTES = 2**17


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
        if int(self.n_steps) != self.n_steps or self.n_steps < 1:
            raise ValueError(f"n_steps must be a positive integer, got {self.n_steps}")
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
        if self.shots is not None and (int(self.shots) != self.shots or self.shots < 1):
            raise ValueError(f"shots must be a positive integer or None, got {self.shots}")
        if int(self.rng_seed) != self.rng_seed or self.rng_seed < 0:
            raise ValueError(f"rng_seed must be a non-negative integer, got {self.rng_seed}")
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
        shots = self.shots
        if shots is not None and (
            isinstance(shots, bool) or not isinstance(shots, numbers.Integral) or shots < 1
        ):
            raise ValueError(f"shots must be a positive integer or None, got {shots!r}")
        self.shots = None if shots is None else int(shots)
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
        keys = ("correlators", "shots", "eps", "values", "initial")
        require_keys(data, keys, "measurement set")
        tokens = require_type(data["correlators"], list, "correlators")
        return cls(
            tuple(PauliString.parse(t) for t in tokens),
            float_array(data["values"], "values"),
            float_array(data["eps"], "eps"),
            float_array(data["initial"], "initial"),
            data["shots"],
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
    if int(shots) != shots or shots < 1:
        raise ValueError(f"shots must be a positive integer, got {shots}")
    return error_level(s, eta) + _level_shift(shots, rng)


def _level_shift(shots: int, rng: np.random.Generator) -> float:
    """The clipped Gaussian shift of :func:`shifted_error_level`, unchecked."""
    width = 1.0 / math.sqrt(shots)
    shift = float(rng.normal(0.0, width))
    return max(-5.0 * width, min(5.0 * width, shift))


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

    First order applies one factor ``exp(-i * c * dt * P)`` per term of
    :attr:`SpinHamiltonian.terms`, in that order. Second order
    runs the same sequence at half angles followed by its reversal.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    base = [TrotterFactor(string, c * dt) for string, c in ham.terms]
    if order == 1:
        return tuple(base)
    half = [TrotterFactor(f.string, 0.5 * f.angle) for f in base]
    return tuple(half + half[::-1])


# one object each for all flips, which an evolve_noisy call keeps per factor
_WHOLE, _REVERSED = slice(None), slice(None, None, -1)


def factor_rotation(factor: TrotterFactor, n_qubits: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """``(cos, sin, flip)`` such that the factor maps the ``(2,) * 2n`` bit
    view r of the state (two bits per site, site 1 first) to
    ``cos * r + sin * r[flip]``.

    A string a that commutes with P keeps its value; one with
    ``P a = 1j**power * b`` (:func:`~bbgky_zne.pauli.multiply`), power odd,
    moves to ``cos(2 angle) <a> -+ sin(2 angle) <b>`` for power 1 / 3, the
    signs of :func:`~bbgky_zne.hierarchy.derive_equation`. ``cos`` and
    ``sin`` hold these factors for the 4^k strings on the factor's own k <= 2
    sites, shaped to broadcast from their bit axes. The partner code is
    ``a ^ code(P)``, so ``flip`` reverses the bit axes set in ``code(P)``:
    ``r[flip]`` is a view holding ``<P a>`` at a."""
    c, s = math.cos(2.0 * factor.angle), math.sin(2.0 * factor.angle)
    local = int("".join(str(axis) for _, axis in factor.string.factors), 4)
    cos = np.ones(4 ** len(factor.string))
    sin = np.zeros_like(cos)
    for a in range(cos.size):
        power, _ = multiply(local, a)
        if power & 1:
            cos[a], sin[a] = c, s if power == 3 else -s
    shape = [1] * (2 * n_qubits)
    for site in factor.string.sites:
        shape[2 * site - 2 : 2 * site] = (2, 2)
    p = code(factor.string, n_qubits)
    flip = tuple(
        _REVERSED if p >> (2 * n_qubits - 1 - axis) & 1 else _WHOLE for axis in range(2 * n_qubits)
    )
    return cos.reshape(shape), sin.reshape(shape), flip


def _untouched(sites: Sequence[int], n_qubits: int) -> tuple:
    """Basic index of the ``(4,) * n`` state's strings that act on none of
    ``sites``."""
    outside = [site for site in sites if site not in range(1, n_qubits + 1)]
    if outside:
        raise ValueError(f"sites {outside} lie outside 1..{n_qubits}")
    return tuple(0 if site in sites else slice(None) for site in range(1, n_qubits + 1))


def damping_tensor(sites: Sequence[int], p: float, n_qubits: int) -> np.ndarray:
    """``(4,) * n`` diagonal of the uniform depolarizing channel on ``sites``:
    with probability p their marginal is replaced by the maximally mixed
    state, so every string that acts on one of them is damped by ``1 - p``
    and every other string keeps the factor 1.0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing probability must lie in [0, 1], got {p}")
    out = np.full((4,) * n_qubits, 1.0 - p)
    out[_untouched(sites, n_qubits)] = 1.0
    return out


def depolarize(
    r: np.ndarray,
    damping: np.ndarray | float,
    kept: np.ndarray | None = None,
    saved: np.ndarray | None = None,
) -> np.ndarray:
    """Apply a depolarizing channel to the state r in place and return r.

    ``damping`` is the channel's :func:`damping_tensor`, or its factor
    ``1 - p`` together with ``kept``, the view of r holding the strings the
    channel leaves alone, and a buffer ``saved`` of that shape: then r is
    scaled as a whole and ``kept`` is restored through ``saved``. Both give
    the same floats, since ``x * 1.0 == x``."""
    if kept is None:
        r *= damping
    else:
        np.copyto(saved, kept)
        r *= damping
        np.copyto(kept, saved)
    return r


def sample_estimate(expectation, shots: int, rng: np.random.Generator):
    """Binomial shot-noise model for +-1-valued measurements: one estimate
    per entry of ``expectation`` (a number or an array), drawn in order."""
    if np.any(np.abs(expectation) > 1.0):
        raise ValueError(f"expectation must lie in [-1, 1], got {expectation}")
    if int(shots) != shots or shots < 1:
        raise ValueError(f"shots must be a positive integer, got {shots}")
    return _binomial_estimate(np.asarray(expectation), int(shots), rng)


def _binomial_estimate(expectation: np.ndarray, shots: int, rng: np.random.Generator):
    """The draw of :func:`sample_estimate`, unchecked: ``expectation`` must
    lie in [-1, 1] and ``shots`` be a positive int."""
    ups = rng.binomial(shots, 0.5 * (1.0 + expectation))
    return 2.0 * ups / shots - 1.0


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

    Fold levels differ only in their noise-only passes and their draws, so a
    group of them (sized by :data:`LEVEL_GROUP_BYTES`) is advanced together:
    one rotation per factor for every state of the group, then each level's
    own channels, passes and draws. Each level sees the same floating-point
    operations whatever the group size.
    """
    n = ham.n_qubits
    if n > NOISY_MAX_QUBITS:
        raise ResourceLimitError(
            f"evolve_noisy is capped at {NOISY_MAX_QUBITS} qubits, got {n}"
        )
    correlators = tuple(correlators)
    if not correlators:
        raise ValueError("at least one correlator is required")
    codes = np.array([code(c, n) for c in correlators])
    basis = parse_basis_label(initial_state, n)
    site_states = [np.array([1.0, 0.0, 0.0, 1.0 - 2.0 * b]) for b in basis]
    # + 0.0 turns the -0.0 that a product with a -1 factor leaves into 0.0
    initial = reduce(np.multiply.outer, site_states).reshape(-1)[codes] + 0.0
    bit_shape = (2,) * (2 * n)

    n_corr, n_steps, n_levels = len(correlators), plan.n_steps, len(plan.fold_levels)
    values = np.empty((n_corr, n_steps, n_levels))
    eps = np.empty((n_steps, n_levels))
    # one buffer of `group` states, reset for each group of fold levels, and
    # its partner buffer
    state_bytes = 8 * 4**n
    group = max(1, min(n_levels, LEVEL_GROUP_BYTES // (2 * state_bytes)))
    states = np.empty((group,) + (4,) * n)
    partners = np.empty((group,) + bit_shape)

    factors = trotter_factors(ham, plan.dt, plan.trotter_order)
    rotations = [factor_rotation(factor, n) for factor in factors]
    supports = [f.string.sites for f in factors]
    rates = [noise.depol_1q if len(sites) == 1 else noise.depol_2q for sites in supports]
    keys = list(zip(supports, rates))
    noisy = {key for key in keys if key[1]}
    # channels[j][key]: the arguments of depolarize for the j-th state
    if len(noisy) * state_bytes <= DAMPING_TENSOR_BYTES:
        tensors = {key: damping_tensor(*key, n) for key in noisy}
        channels = [{key: (r, tensors[key]) for key in noisy} for r in states]
    else:
        channels, saved = [{} for _ in states], {}
        for r, channel in zip(states, channels):
            for sites, p in noisy:
                kept = r[_untouched(sites, n)]
                buffer = saved.setdefault(len(sites), np.empty_like(kept))
                channel[sites, p] = (r, 1.0 - p, kept, buffer)
    noise_passes = [[channel[key] for key in keys if key in noisy] for channel in channels]
    readout = np.array([(1.0 - 2.0 * noise.readout_flip) ** len(c) for c in correlators])

    for first in range(0, n_levels, group):
        levels = range(first, min(first + group, n_levels))
        size = len(levels)
        bits = states[:size].reshape((size,) + bit_shape)
        flat = states[:size].reshape(size, -1)
        partner = partners[:size]
        steps = [
            (
                cos,
                sin,
                bits[(_WHOLE,) + flip],
                [channel[key] for channel in channels[:size]] if key in noisy else [],
            )
            for (cos, sin, flip), key in zip(rotations, keys)
        ]
        rngs = [np.random.default_rng([plan.rng_seed, k]) for k in levels]
        schedules = [fold_schedule(plan.fold_levels[k], n_steps) for k in levels]
        # the basis state, rebuilt for each group: held beside the buffer, it
        # would add a state to the peak
        states[:size] = reduce(np.multiply.outer, site_states)
        for s in range(1, n_steps + 1):
            for cos, sin, flipped, after in steps:
                # in place on the bit view of every state of the group: the
                # partners are read out before any entry changes
                np.multiply(sin, flipped, out=partner)
                bits *= cos
                bits += partner
                for damping in after:
                    depolarize(*damping)
            for j, k in enumerate(levels):
                for _ in range(2 * schedules[j][s - 1]):
                    for damping in noise_passes[j]:
                        depolarize(*damping)
                expectations = np.clip(flat[j, codes] * readout, -1.0, 1.0)
                level = error_level(s, plan.fold_levels[k])
                if plan.shots is None:
                    eps[s - 1, k] = level
                    values[:, s - 1, k] = expectations
                else:
                    # EvolutionPlan has checked shots and the clip bounds the
                    # expectations, so the draws skip the public helpers' checks
                    eps[s - 1, k] = level + _level_shift(plan.shots, rngs[j])
                    values[:, s - 1, k] = _binomial_estimate(expectations, plan.shots, rngs[j])

    return MeasurementSet(correlators, values, eps, initial, plan.shots)


def evolve_exact(
    ham: SpinHamiltonian,
    initial_state: str,
    times: Sequence[float],
    observables: Sequence[ObservableCombination | PauliString],
) -> np.ndarray:
    """Noise-free reference expectations via exact diagonalization in the
    sector of basis states that H reaches from the initial basis state.

    Returns an array indexed ``[observable, time]``. Bare Pauli strings are
    accepted and treated as weight-1 combinations. Raises
    :class:`ResourceLimitError` while the sector grows past
    :data:`EXACT_MAX_STATES` states, before any matrix is built.
    """
    n = ham.n_qubits
    if n > 63:
        # basis states are int64 bit masks
        raise ResourceLimitError(f"evolve_exact holds basis states in 63 bits, got {n} qubits")
    start = int("".join(map(str, parse_basis_label(initial_state, n))), 2)
    combos = [
        obs if isinstance(obs, ObservableCombination) else ObservableCombination(0.0, ((1.0, obs),))
        for obs in observables
    ]

    # the terms sorted by flip mask, so that one reduceat sums, per source
    # state and flip, all terms' contributions before any is tested for zero:
    # XX and YY on a pair cancel exactly between |00> and |11>
    flip, sign_mask, phase = _basis_action([string for string, _ in ham.terms], n)
    order = np.argsort(flip, kind="stable")
    coeffs = (phase * [c for _, c in ham.terms])[order]
    flips, starts = np.unique(flip[order], return_index=True)
    sign_mask = sign_mask[order]

    states = frontier = np.array([start])
    links = []
    while frontier.size:
        odd = np.bitwise_count(frontier[:, None] & sign_mask) & 1
        amplitudes = np.add.reduceat(np.where(odd, -coeffs, coeffs), starts, axis=1)
        source, which = np.nonzero(amplitudes)
        sources = frontier[source]
        targets = sources ^ flips[which]
        links.append((sources, targets, amplitudes[source, which]))
        # states stays sorted, so a binary search finds the reached ones
        reached = np.unique(targets)
        known = states[np.minimum(np.searchsorted(states, reached), states.size - 1)]
        frontier = reached[known != reached]
        if states.size + frontier.size > EXACT_MAX_STATES:
            raise ResourceLimitError(
                f"evolve_exact is capped at {EXACT_MAX_STATES} basis states, and the "
                f"sector of {initial_state!r} reached {states.size + frontier.size}"
            )
        states = np.sort(np.concatenate((states, frontier)))

    d = states.size
    sources, targets, amplitudes = (np.concatenate(parts) for parts in zip(*links))
    matrix = np.zeros((d, d), dtype=complex)
    matrix[np.searchsorted(states, targets), np.searchsorted(states, sources)] = amplitudes
    # a real matrix, as every Schwinger chain's, is diagonalized in real
    # arithmetic: ~6x faster at 924 states
    energies, modes = np.linalg.eigh(matrix if matrix.imag.any() else matrix.real)
    first = np.searchsorted(states, start)
    psi = modes @ (np.exp(-1j * np.outer(energies, times)) * modes[first].conj()[:, None])

    # <P> = sum_b conj(psi[b ^ x]) phase(b) psi[b]; a partner outside the
    # sector holds no amplitude
    strings = list(dict.fromkeys(s for combo in combos for s in combo.strings))
    flip, sign_mask, phase = _basis_action(strings, n)
    expectations = np.empty((len(strings), len(times)))
    for x in np.unique(flip):
        members = np.flatnonzero(flip == x)
        partners = states ^ x
        rows = np.minimum(np.searchsorted(states, partners), d - 1)
        overlaps = psi[rows].conj() * psi * (states[rows] == partners)[:, None]
        odd = np.bitwise_count(states & sign_mask[members, None]) & 1
        expectations[members] = (np.where(odd, -1, 1) * phase[members, None] @ overlaps).real
    index = {string: k for k, string in enumerate(strings)}
    weights = np.zeros((len(combos), len(strings)))
    for row, combo in zip(weights, combos):
        for w, string in combo.terms:
            row[index[string]] = w
    offsets = np.array([combo.constant_offset for combo in combos])
    return offsets[:, None] + weights @ expectations


def _basis_action(strings: Sequence[PauliString], n_qubits: int):
    """``(flip, sign_mask, phase)`` of each string as n-bit basis masks,
    site 1 most significant: the string maps basis state b to
    ``phase * (-1)**|b & sign_mask| * |b ^ flip>``.

    Per site, with the bits (hi, lo) of the string's :func:`~bbgky_zne.pauli.code`
    digit, the axis is ``1j**(x z) X**x Z**z`` with x = hi ^ lo and z = hi
    (the rule of :func:`~bbgky_zne.pauli.multiply`), so flip = x,
    sign_mask = z and phase = ``1j**|Y|``."""
    flip, sign_mask, phase = [], [], []
    for string in strings:
        digits = format(code(string, n_qubits), f"0{2 * n_qubits}b")
        hi, lo = int(digits[0::2], 2), int(digits[1::2], 2)
        flip.append(hi ^ lo)
        sign_mask.append(hi)
        phase.append(1j ** (hi & ~lo).bit_count())
    return (
        np.array(flip, dtype=np.int64),
        np.array(sign_mask, dtype=np.int64),
        np.array(phase, dtype=complex),
    )
