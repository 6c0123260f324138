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

The cells of one :func:`evolve_noisy_batch` call (parameter points whose
Hamiltonians have the same term strings, in the same order) and the fold
levels of each cell share the unitary part of their evolution up to the
angles, so the call advances them in batches: one buffer of shape
``(levels, cells) + (4,) * n`` holds a group of fold levels of a batch of
cells (:data:`LEVEL_GROUP_BYTES` sets both from the state's byte size), and
is reset for each group. Each factor's flip and signs are built once per
batch, with one ``(cos, sin)`` row per cell, so three in-place operations
rotate every state of the group. Each level's view over the batch's cells
is contiguous: one :func:`depolarize` call per (level, channel) or
noise-only pass damps every cell. The draws come after the evolution, per
(cell, level) stream and in the order a lone cell would make them, so the
outputs do not depend on the batch or group size; :func:`evolve_noisy` is
the one-cell call. :func:`depolarize` changes the state it is given in
place, as one product with a :func:`damping_tensor` per distinct (support,
rate), held once per cell slot of the batch. When the tensors would exceed
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
from dataclasses import dataclass, replace
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
#: bytes of damping tensors one :func:`evolve_noisy_batch` call may hold,
#: one tensor per distinct (support, rate) and cell slot of a batch. Past it
#: they outgrow a core's cache, and reading a tensor per channel costs more
#: than scaling the whole state and restoring the strings the channel spares.
DAMPING_TENSOR_BYTES = 2**21
#: bytes of state and partner buffers one :func:`evolve_noisy_batch` call may
#: hold, two buffers of ``8 * 4**n`` bytes per state. They cap the states
#: (levels x cells) advanced together, at least one: a batch holds all fold
#: levels of as many cells as fit, or one cell and as many levels as fit.
#: With four fold levels that is 8 cells at n = 4, 2 cells at n = 5, one
#: cell and 2 levels at n = 6 and one state from n = 7 on. Rotating many
#: states at once amortizes the per-call overhead that dominates small
#: registers; at n = 8 two or four levels at once made the call 9-18 %
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
    width = 1.0 / math.sqrt(shots)
    shift = float(rng.normal(0.0, width))
    return error_level(s, eta) + max(-5.0 * width, min(5.0 * width, shift))


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


def factor_rotation(
    string: PauliString, angles: Sequence[float], n_qubits: int
) -> tuple[np.ndarray, np.ndarray, tuple]:
    """``(cos, sin, flip)`` such that the factor ``exp(-i angle string)`` at
    the c-th of ``angles`` maps the ``(2,) * 2n`` bit view r of the state
    (two bits per site, site 1 first) to ``cos[c] * r + sin[c] * r[flip]``.

    A string a that commutes with P keeps its value; one with
    ``P a = 1j**power * b`` (:func:`~bbgky_zne.pauli.multiply`), power odd,
    moves to ``cos(2 angle) <a> -+ sin(2 angle) <b>`` for power 1 / 3, the
    signs of :func:`~bbgky_zne.hierarchy.derive_equation`. ``cos[c]`` and
    ``sin[c]`` hold these factors for the 4^k strings on the factor's own
    k <= 2 sites, shaped to broadcast from their bit axes; the signs and
    ``flip`` are shared by all angles. The partner code is ``a ^ code(P)``,
    so ``flip`` reverses the bit axes set in ``code(P)``: ``r[flip]`` is a
    view holding ``<P a>`` at a."""
    local = int("".join(str(axis) for _, axis in string.factors), 4)
    powers = [multiply(local, a)[0] for a in range(4 ** len(string))]
    cos = np.ones((len(angles), len(powers)))
    sin = np.zeros_like(cos)
    for row, angle in enumerate(angles):
        c, s = math.cos(2.0 * angle), math.sin(2.0 * angle)
        for a, power in enumerate(powers):
            if power & 1:
                cos[row, a], sin[row, a] = c, s if power == 3 else -s
    shape = [len(angles)] + [1] * (2 * n_qubits)
    for site in string.sites:
        shape[2 * site - 1 : 2 * site + 1] = (2, 2)
    p = code(string, n_qubits)
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
    shots = int(shots)
    ups = rng.binomial(shots, 0.5 * (1.0 + np.asarray(expectation)))
    return 2.0 * ups / shots - 1.0


def evolve_noisy(
    ham: SpinHamiltonian,
    initial_state: str,
    plan: EvolutionPlan,
    noise: NoiseModel,
    correlators: Sequence[PauliString],
) -> MeasurementSet:
    """Simulate the full measurement campaign for one parameter point: the
    one-cell call of :func:`evolve_noisy_batch`."""
    return evolve_noisy_batch([ham], initial_state, [plan], noise, correlators)[0]


def evolve_noisy_batch(
    hams: Sequence[SpinHamiltonian],
    initial_state: str,
    plans: Sequence[EvolutionPlan],
    noise: NoiseModel,
    correlators: Sequence[PauliString],
) -> list[MeasurementSet]:
    """Simulate the measurement campaign of several cells at once, one
    :class:`MeasurementSet` per (Hamiltonian, plan) pair.

    The Hamiltonians must have the same term strings in the same order (their
    coefficients may differ), and the plans may differ in ``rng_seed`` only;
    otherwise ``ValueError`` is raised.

    For every fold level of every cell the register is evolved from the
    initial state with its own random stream (derived from the cell's
    ``plan.rng_seed`` and the level index), and after each step every
    correlator is estimated. The draw order per stream is fixed (level shift
    first, then correlators in order, step by step) so runs are reproducible
    regardless of the consumer.

    Cells and fold levels differ only in their angles, noise-only passes and
    draws, so a batch of them (sized by :data:`LEVEL_GROUP_BYTES`) is
    advanced together: one rotation per factor for every state of the batch,
    then each level's own channels and passes for all cells of the batch.
    Each state sees the same floating-point operations whatever the batch.
    """
    hams, plans = list(hams), list(plans)
    if not hams or len(plans) != len(hams):
        raise ValueError("a batch needs one plan per Hamiltonian and at least one cell")
    ham, plan = hams[0], plans[0]
    n = ham.n_qubits
    strings = [string for string, _ in ham.terms]
    for other in hams[1:]:
        if other.n_qubits != n:
            raise ValueError(
                f"a batch holds one register size, got {n} and {other.n_qubits} qubits"
            )
        if [string for string, _ in other.terms] != strings:
            raise ValueError("the Hamiltonians of a batch must have the same term strings in order")
    if any(replace(other, rng_seed=plan.rng_seed) != plan for other in plans[1:]):
        raise ValueError("the plans of a batch may differ in rng_seed only")
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

    n_cells, n_corr = len(hams), len(correlators)
    n_steps, n_levels = plan.n_steps, len(plan.fold_levels)
    values = np.empty((n_cells, n_corr, n_steps, n_levels))
    eps = np.tile(
        [[error_level(s, eta) for eta in plan.fold_levels] for s in range(1, n_steps + 1)],
        (n_cells, 1, 1),
    )
    # one buffer of `group` levels by `batch` cells, reset for each group of
    # fold levels, and its partner buffer: each level's view over the cells
    # is contiguous, so one channel call damps it
    state_bytes = 8 * 4**n
    room = LEVEL_GROUP_BYTES // (2 * state_bytes)
    group = max(1, min(n_levels, room))
    batch = max(1, min(n_cells, room // n_levels))
    states = np.empty((group, batch) + (4,) * n)
    partners = np.empty((group, batch) + bit_shape)
    bit_states = states.reshape((group, batch) + bit_shape)
    flat_states = states.reshape(group, batch, -1)

    factors = [trotter_factors(h, plan.dt, plan.trotter_order) for h in hams]
    supports = [f.string.sites for f in factors[0]]
    rates = [noise.depol_1q if len(sites) == 1 else noise.depol_2q for sites in supports]
    keys = list(zip(supports, rates))
    noisy = {key for key in keys if key[1]}
    # a tensor per cell slot: a product of equal shapes skips numpy's
    # broadcasting, which costs more than the product at small n
    tensors = (
        {key: np.broadcast_to(damping_tensor(*key, n), states.shape[1:]).copy() for key in noisy}
        if len(noisy) * batch * state_bytes <= DAMPING_TENSOR_BYTES
        else None
    )
    readout = np.array([(1.0 - 2.0 * noise.readout_flip) ** len(c) for c in correlators])
    schedules = [fold_schedule(eta, n_steps) for eta in plan.fold_levels]

    for start in range(0, n_cells, batch):
        cells = range(start, min(start + batch, n_cells))
        size = len(cells)
        rotations = [
            factor_rotation(f.string, [factors[c][i].angle for c in cells], n)
            for i, f in enumerate(factors[0])
        ]
        # channels[j][key]: the arguments of depolarize for the j-th level of
        # a group, over the batch's cells
        slots = states[:, :size]
        if tensors is not None:
            channels = [{key: (r, tensors[key][:size]) for key in noisy} for r in slots]
        else:
            channels, saved = [{} for _ in slots], {}
            for r, channel in zip(slots, channels):
                for sites, p in noisy:
                    kept = r[(_WHOLE,) + _untouched(sites, n)]
                    buffer = saved.setdefault(len(sites), np.empty_like(kept))
                    channel[sites, p] = (r, 1.0 - p, kept, buffer)
        noise_passes = [[channel[key] for key in keys if key in noisy] for channel in channels]

        for first in range(0, n_levels, group):
            levels = range(first, min(first + group, n_levels))
            width = len(levels)
            bits = bit_states[:width, :size]
            flat = flat_states[:width, :size]
            partner = partners[:width, :size]
            steps = [
                (
                    cos,
                    sin,
                    bits[(_WHOLE, _WHOLE) + flip],
                    [channel[key] for channel in channels[:width]] if key in noisy else [],
                )
                for (cos, sin, flip), key in zip(rotations, keys)
            ]
            # the basis state, rebuilt for each group: held beside the
            # buffer, it would add a state to the peak
            states[:width, :size] = reduce(np.multiply.outer, site_states)
            for s in range(1, n_steps + 1):
                for cos, sin, flipped, after in steps:
                    # in place on the bit view of every state of the group:
                    # the partners are read out before any entry changes
                    np.multiply(sin, flipped, out=partner)
                    bits *= cos
                    bits += partner
                    for damping in after:
                        depolarize(*damping)
                for j, k in enumerate(levels):
                    for _ in range(2 * schedules[k][s - 1]):
                        for damping in noise_passes[j]:
                            depolarize(*damping)
                # [level, cell, correlator] -> [cell, correlator, level]
                expectations = np.clip(flat[:, :, codes] * readout, -1.0, 1.0)
                values[start : start + size, :, s - 1, first : first + width] = (
                    expectations.transpose(1, 2, 0)
                )

    if plan.shots is not None:
        # The draws of shifted_error_level and sample_estimate, in each
        # stream's order; their arithmetic is done once for all streams.
        # EvolutionPlan has checked shots and the clip bounds the
        # expectations, so the public helpers' checks are skipped. ``draws``
        # is laid out [cell, level, step, correlator], so that each binomial
        # call reads one contiguous row of probabilities and its counts
        # overwrite that row.
        shots = plan.shots
        width = 1.0 / math.sqrt(shots)
        draws = np.add(values.transpose(0, 3, 2, 1), 1.0, order="C")
        draws *= 0.5
        shifts = np.empty(draws.shape[:3])
        for c, cell_plan in enumerate(plans):
            for k in range(n_levels):
                rng = np.random.default_rng([cell_plan.rng_seed, k])
                for s in range(n_steps):
                    shifts[c, k, s] = rng.normal(0.0, width)
                    draws[c, k, s] = rng.binomial(shots, draws[c, k, s])
        eps += np.clip(shifts, -5.0 * width, 5.0 * width).transpose(0, 2, 1)
        draws *= 2.0
        draws /= shots
        draws -= 1.0
        values[...] = draws.transpose(0, 3, 2, 1)

    return [
        MeasurementSet(correlators, values[c], eps[c], initial.copy(), plan.shots)
        for c in range(n_cells)
    ]


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
