"""Equation-of-motion algebra for spin-1/2 Pauli strings.

For a Hamiltonian with one- and two-site terms,

``H = 1/2 sum_i h_i^mu sigma_i^mu + 1/4 sum_{i<j} V_ij^{mu nu} sigma_i^mu sigma_j^nu``,

written as a sum ``sum_P c_P P`` of Pauli strings, the Heisenberg derivative
``d/dt <s> = i <[H, s]>`` of any Pauli-string expectation is again a finite
combination of Pauli-string expectations (a BBGKY-type hierarchy). A term
that commutes with s drops out; one that anticommutes gives
``i c_P [P, s] = 2 i c_P P s = +-2 c_P t`` for the single string t = P s.
Because H has at most two-site terms, each equation couples a string of
weight n only to strings of weight n-1, n and n+1, and distinct terms of H
reach distinct strings t.

Since ``t = P s`` means ``s = P t``, and the phase of P t is the conjugate of
that of P s, the coefficient of ``<t>`` in the equation of s is exactly minus
the coefficient of ``<s>`` in the equation of t: the generator is
antisymmetric, so the hierarchy graph is undirected and the strings whose
equations contain s are the strings of the equation of s.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, partial
from typing import Callable, Hashable, Iterable, Sequence, TypeVar

import numpy as np

from .errors import ResourceLimitError
from .jsonio import require_keys, require_type
from .pauli import PauliString, anticommute, code, decode, multiply

#: equation coefficients with magnitude below this are dropped
COEFF_TOL = 1e-12

@dataclass(frozen=True)
class SpinHamiltonian:
    """Coefficient tables of a one- plus two-site spin Hamiltonian.

    ``h[i-1, mu-1]`` multiplies ``sigma_i^mu / 2`` and
    ``V[i-1, j-1, mu-1, nu-1]`` multiplies ``sigma_i^mu sigma_j^nu / 4``.
    The coupling tensor is stored for ``i < j`` only; access through
    :meth:`coupling` symmetrises the index order.
    """

    n_qubits: int
    h: np.ndarray
    V: np.ndarray

    def __post_init__(self) -> None:
        n = int(self.n_qubits)
        if n != self.n_qubits or n < 1:
            raise ValueError(f"n_qubits must be an integer >= 1, got {self.n_qubits}")
        h = np.asarray(self.h, dtype=float)
        V = np.asarray(self.V, dtype=float)
        if h.shape != (n, 3):
            raise ValueError(f"h must have shape ({n}, 3), got {h.shape}")
        if V.shape != (n, n, 3, 3):
            raise ValueError(f"V must have shape ({n}, {n}, 3, 3), got {V.shape}")
        if not (np.isfinite(h).all() and np.isfinite(V).all()):
            raise ValueError("Hamiltonian coefficients must be finite")
        lower = np.tril(np.ones((n, n), dtype=bool))
        if np.any(V[lower] != 0.0):
            raise ValueError("V must be stored for i < j only (lower triangle zero)")
        h = h.copy()
        V = V.copy()
        h.flags.writeable = False
        V.flags.writeable = False
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "V", V)

    @classmethod
    def build(
        cls,
        n_qubits: int,
        fields: dict[tuple[int, int], float] | None = None,
        couplings: dict[tuple[int, int, int, int], float] | None = None,
    ) -> "SpinHamiltonian":
        """Assemble from sparse ``{(i, mu): h}`` / ``{(i, j, mu, nu): V}`` maps."""
        h = np.zeros((n_qubits, 3))
        V = np.zeros((n_qubits, n_qubits, 3, 3))
        for (i, mu), value in (fields or {}).items():
            h[i - 1, mu - 1] = value
        for (i, j, mu, nu), value in (couplings or {}).items():
            if i == j:
                raise ValueError("couplings need two distinct sites")
            if i < j:
                V[i - 1, j - 1, mu - 1, nu - 1] = value
            else:
                V[j - 1, i - 1, nu - 1, mu - 1] = value
        return cls(n_qubits, h, V)

    def field(self, site: int, mu: int) -> float:
        return float(self.h[site - 1, mu - 1])

    def coupling(self, i: int, j: int, mu: int, nu: int) -> float:
        """Coefficient of ``sigma_i^mu sigma_j^nu`` regardless of site order."""
        if i == j:
            raise ValueError("coupling requires two distinct sites")
        if i < j:
            return float(self.V[i - 1, j - 1, mu - 1, nu - 1])
        return float(self.V[j - 1, i - 1, nu - 1, mu - 1])

    @cached_property
    def terms(self) -> tuple[tuple[PauliString, float], ...]:
        """H as ``(P, c)`` pairs with ``H = sum c * P``: fields ascending by
        (site, axis) with ``c = h / 2``, then couplings ascending by
        (i, j, mu, nu) with ``c = V / 4``. Zero coefficients are skipped."""
        fields = [
            (PauliString.single(i + 1, mu + 1), 0.5 * float(self.h[i, mu]))
            for i, mu in np.argwhere(self.h)
        ]
        couplings = [
            (PauliString(((i + 1, mu + 1), (j + 1, nu + 1))), 0.25 * float(self.V[i, j, mu, nu]))
            for i, j, mu, nu in np.argwhere(self.V)
        ]
        return tuple(fields + couplings)

    @cached_property
    def edges(self) -> tuple[tuple[int, float], ...]:
        """The terms c P of :attr:`terms` as ``(code(P), 2c)``, dropping those
        with ``|2c|`` below :data:`COEFF_TOL`: each links a string a that
        anticommutes with P to ``a ^ code(P)`` with coefficient ``+-2c``
        (:func:`derive_equation`)."""
        return tuple(
            (code(string, self.n_qubits), 2.0 * c)
            for string, c in self.terms
            if abs(2.0 * c) >= COEFF_TOL
        )


@dataclass(frozen=True)
class BbgkyEquation:
    """One hierarchy equation: ``d/dt <lhs> = sum_k coeff_k <string_k>``."""

    lhs: PauliString
    terms: tuple[tuple[float, PauliString], ...] = ()

    def __post_init__(self) -> None:
        strings = [s for _, s in self.terms]
        if len(set(strings)) != len(strings):
            raise ValueError("equation terms must have distinct strings")
        object.__setattr__(
            self,
            "terms",
            tuple(sorted(((float(c), s) for c, s in self.terms), key=lambda t: t[1].sort_key())),
        )

    @property
    def strings(self) -> tuple[PauliString, ...]:
        return tuple(s for _, s in self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return f"d/dt <{self.lhs.token()}> = 0"
        body = " + ".join(f"({c:.12g})*<{s.token()}>" for c, s in self.terms)
        return f"d/dt <{self.lhs.token()}> = {body}"

    def to_dict(self) -> dict:
        return {
            "lhs": self.lhs.token(),
            "terms": [{"coeff": float(c), "string": s.token()} for c, s in self.terms],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BbgkyEquation":
        require_keys(data, ("lhs", "terms"), "equation")
        terms = []
        for term in require_type(data["terms"], list, "equation terms"):
            require_keys(term, ("coeff", "string"), "equation term")
            coeff = require_type(term["coeff"], (int, float), "equation term coeff")
            terms.append((coeff, PauliString.parse(term["string"])))
        return cls(PauliString.parse(data["lhs"]), tuple(terms))


def derive_equation(ham: SpinHamiltonian, s: PauliString) -> BbgkyEquation:
    """Expand ``d/dt <s> = i <[H, s]>`` into Pauli-string expectations.

    Each term ``c P`` of H that anticommutes with s contributes
    ``2 i c P s``; with ``P s = 1j**power * t`` (power odd) that is ``-2c``
    (power 1) or ``+2c`` (power 3) on ``<t>``. Distinct terms reach distinct
    strings, so no contributions merge; terms are read from
    :attr:`SpinHamiltonian.edges`, which drops coefficients below
    :data:`COEFF_TOL`.
    """
    a = code(s, ham.n_qubits)
    terms = []
    for p, coeff in ham.edges:
        power, t = multiply(p, a)
        if power & 1:
            terms.append((coeff if power == 3 else -coeff, decode(t, ham.n_qubits)))
    return BbgkyEquation(s, tuple(terms))


def downstream(ham: SpinHamiltonian, s: PauliString) -> frozenset[PauliString]:
    """Strings appearing with nonzero coefficient in the equation of ``s``;
    by antisymmetry also the strings whose equations contain ``s``."""
    return frozenset(derive_equation(ham, s).strings)


@dataclass(frozen=True)
class HierarchySubset:
    """A finite closed view of the hierarchy used as mitigation constraints.

    ``correlators`` lists every string appearing on either side of the kept
    equations; the first ``seed_count`` entries are the seed strings in their
    given order, the remainder follows the canonical string order.
    """

    equations: tuple[BbgkyEquation, ...]
    correlators: tuple[PauliString, ...]
    seed_count: int
    radius: int

    def __post_init__(self) -> None:
        known = set(self.correlators)
        if len(known) != len(self.correlators):
            raise ValueError("correlators must be distinct")
        for eq in self.equations:
            if eq.lhs not in known:
                raise ValueError(f"equation LHS {eq.lhs.token()!r} missing from correlators")
            for _, string in eq.terms:
                if string not in known:
                    raise ValueError(
                        f"equation term {string.token()!r} missing from correlators"
                    )
        if not 0 <= self.seed_count <= len(self.correlators):
            raise ValueError("seed_count out of range")
        if int(self.radius) != self.radius or self.radius < 0:
            raise ValueError(f"radius must be a non-negative integer, got {self.radius!r}")
        object.__setattr__(self, "radius", int(self.radius))

    @property
    def n_equations(self) -> int:
        return len(self.equations)

    @property
    def n_correlators(self) -> int:
        return len(self.correlators)

    @property
    def seeds(self) -> tuple[PauliString, ...]:
        return self.correlators[: self.seed_count]

    def to_dict(self) -> dict:
        return {
            "seeds": [s.token() for s in self.seeds],
            "r": self.radius,
            "equations": [eq.to_dict() for eq in self.equations],
            "correlators": [s.token() for s in self.correlators],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HierarchySubset":
        require_keys(data, ("seeds", "r", "equations", "correlators"), "hierarchy subset")
        equations = require_type(data["equations"], list, "equations")
        tokens = require_type(data["correlators"], list, "correlators")
        correlators = tuple(PauliString.parse(t) for t in tokens)
        seeds = tuple(PauliString.parse(t) for t in require_type(data["seeds"], list, "seeds"))
        if seeds != correlators[: len(seeds)]:
            raise ValueError("seeds must be the first correlators, in the same order")
        return cls(
            tuple(BbgkyEquation.from_dict(e) for e in equations),
            correlators,
            len(seeds),
            require_type(data["r"], int, "radius"),
        )


Node = TypeVar("Node", bound=Hashable)


def _grow(
    neighbours: Callable[[Node], Iterable[Node]], seeds: Iterable[Node], radius: int | None
) -> set[Node]:
    """The seeds and every node within ``radius`` hops of them along
    ``neighbours``, or every node they reach when ``radius`` is None."""
    members, frontier = set(seeds), set(seeds)
    hops = 0
    while frontier and hops != radius:
        frontier = {t for s in frontier for t in neighbours(s)} - members
        members |= frontier
        hops += 1
    return members


def select_subset(
    ham: SpinHamiltonian, seeds: Sequence[PauliString], radius: int
) -> HierarchySubset:
    """Grow the seed set ``radius`` times along hierarchy connections.

    Each iteration adds the strings in the equations of the newest members.
    The hierarchy graph is undirected, so these are also all strings whose
    equations contain a newest member. One equation is derived per member;
    RHS strings that fall outside the set become constraint-free correlators
    (they get measured and extrapolated, but carry no equation of their own).
    """
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("seeds must be non-empty")
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be distinct")
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")

    equation = cache(partial(derive_equation, ham))
    members = _grow(lambda s: equation(s).strings, seeds, radius)
    rhs = {string for s in members for string in equation(s).strings}
    remainder = sorted((members | rhs) - set(seeds), key=lambda s: s.sort_key())
    correlators = seeds + tuple(remainder)
    equations = tuple(equation(s) for s in correlators if s in members)
    return HierarchySubset(equations, correlators, len(seeds), radius)


#: :func:`decompose` walks all 4**n string codes, so it stops at this size
DECOMPOSE_MAX_QUBITS = 8


def decompose(ham: SpinHamiltonian) -> list[int]:
    """Sizes of the connected components of the full hierarchy graph, in
    ascending order, over all ``4**n_qubits`` strings.

    The graph is walked on integer codes (:func:`~bbgky_zne.pauli.code`) along
    :attr:`SpinHamiltonian.edges`, the links of :func:`derive_equation`. Each
    component is an unvisited code grown until nothing new is added."""
    n = ham.n_qubits
    if n > DECOMPOSE_MAX_QUBITS:
        raise ResourceLimitError(
            f"decompose enumerates 4**{n} strings; cap is {DECOMPOSE_MAX_QUBITS} qubits"
        )
    masks = [p for p, _ in ham.edges]

    def neighbours(a: int) -> list[int]:
        return [a ^ m for m in masks if anticommute(a, m)]

    unseen = set(range(4**n))
    sizes = []
    while unseen:
        component = _grow(neighbours, (unseen.pop(),), None)
        sizes.append(len(component))
        unseen -= component
    return sorted(sizes)
