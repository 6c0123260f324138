"""Equation-of-motion algebra for spin-1/2 Pauli strings.

For a Hamiltonian with one- and two-site terms,

``H = 1/2 sum_i h_i^mu sigma_i^mu + 1/4 sum_{i<j} V_ij^{mu nu} sigma_i^mu sigma_j^nu``,

the Heisenberg derivative ``d/dt <s> = i <[H, s]>`` of any Pauli-string
expectation is again a finite combination of Pauli-string expectations (a
BBGKY-type hierarchy). Because H has at most two-site terms, each equation
couples a string of weight n only to strings of weight n-1, n and n+1, and
every (source, target) connection is produced by exactly one commutator
route. That single-route structure is what makes the hierarchy invertible
by local rules: ``upstream`` finds all strings whose equation contains a
given target without scanning the exponentially large string space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ResourceLimitError
from .jsonio import require_keys
from .pauli import PauliString, all_strings, dense_pauli

#: coefficients with magnitude below this are dropped after merging
COEFF_TOL = 1e-12

_LEVI_PARTNER = {(1, 2): 3, (2, 1): 3, (1, 3): 2, (3, 1): 2, (2, 3): 1, (3, 2): 1}
_LEVI_SIGN = {
    (1, 2, 3): 1.0,
    (2, 3, 1): 1.0,
    (3, 1, 2): 1.0,
    (2, 1, 3): -1.0,
    (3, 2, 1): -1.0,
    (1, 3, 2): -1.0,
}


def levi_partner(mu: int, nu: int) -> int:
    """The unique third axis forming a nonzero Levi-Civita triple with mu, nu."""
    if mu not in (1, 2, 3) or nu not in (1, 2, 3):
        raise ValueError(f"axes must be in 1..3, got ({mu}, {nu})")
    if mu == nu:
        raise ValueError(f"no Levi-Civita partner for equal axes ({mu}, {nu})")
    return _LEVI_PARTNER[(mu, nu)]


def levi_sign(mu: int, nu: int, lam: int) -> float:
    return _LEVI_SIGN.get((mu, nu, lam), 0.0)


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
        if n < 1:
            raise ValueError(f"n_qubits must be >= 1, got {n}")
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

    def dense(self) -> np.ndarray:
        dim = 2**self.n_qubits
        out = np.zeros((dim, dim), dtype=complex)
        for i in range(1, self.n_qubits + 1):
            for mu in (1, 2, 3):
                value = self.field(i, mu)
                if value:
                    out += 0.5 * value * dense_pauli(PauliString.single(i, mu), self.n_qubits)
        for i in range(1, self.n_qubits + 1):
            for j in range(i + 1, self.n_qubits + 1):
                for mu in (1, 2, 3):
                    for nu in (1, 2, 3):
                        value = self.coupling(i, j, mu, nu)
                        if value:
                            out += 0.25 * value * dense_pauli(
                                PauliString(((i, mu), (j, nu))), self.n_qubits
                            )
        return out


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
        return cls(
            PauliString.parse(data["lhs"]),
            tuple((float(t["coeff"]), PauliString.parse(t["string"])) for t in data["terms"]),
        )


def _check_string(ham: SpinHamiltonian, s: PauliString) -> None:
    if s.max_site() > ham.n_qubits:
        raise ValueError(
            f"string {s.token()!r} references site {s.max_site()} "
            f"on a {ham.n_qubits}-qubit Hamiltonian"
        )


def derive_equation(ham: SpinHamiltonian, s: PauliString) -> BbgkyEquation:
    """Expand ``d/dt <s> = i <[H, s]>`` into Pauli-string expectations.

    The identity string has an empty equation. Contributions landing on the
    same string are merged and dropped below :data:`COEFF_TOL`.
    """
    _check_string(ham, s)
    if s.is_identity:
        return BbgkyEquation(s, ())

    acc: dict[PauliString, float] = {}

    def add(string: PauliString, coeff: float) -> None:
        acc[string] = acc.get(string, 0.0) + coeff

    in_string = set(s.sites)

    for i, mu_i in s.factors:
        # one-site field terms keep the weight: sigma_i^mu_i -> sigma_i^nu
        for lam in (1, 2, 3):
            if lam == mu_i:
                continue
            h_val = ham.field(i, lam)
            if h_val == 0.0:
                continue
            nu = levi_partner(mu_i, lam)
            add(s.with_axis(i, nu), h_val * levi_sign(mu_i, lam, nu))

        # two-site terms with both sites inside the string drop site i and
        # rotate the partner site j: weight n -> n - 1
        for j, mu_j in s.factors:
            if j == i:
                continue
            for nu in (1, 2, 3):
                if nu == mu_j:
                    continue
                v = ham.coupling(i, j, mu_i, nu)
                if v == 0.0:
                    continue
                lam = levi_partner(mu_j, nu)
                add(
                    s.without_site(i).with_axis(j, lam),
                    0.5 * v * levi_sign(mu_j, nu, lam),
                )

        # two-site terms reaching outside the string rotate site i and attach
        # the outside site j: weight n -> n + 1
        for j in range(1, ham.n_qubits + 1):
            if j in in_string:
                continue
            for mu in (1, 2, 3):
                if mu == mu_i:
                    continue
                lam = levi_partner(mu_i, mu)
                sign = levi_sign(mu_i, mu, lam)
                for nu in (1, 2, 3):
                    v = ham.coupling(i, j, mu, nu)
                    if v == 0.0:
                        continue
                    add(s.with_axis(i, lam).with_axis(j, nu), 0.5 * v * sign)

    terms = tuple((c, t) for t, c in acc.items() if abs(c) >= COEFF_TOL)
    return BbgkyEquation(s, terms)


def downstream(ham: SpinHamiltonian, s: PauliString) -> frozenset[PauliString]:
    """Strings appearing with nonzero coefficient in the equation of ``s``."""
    return frozenset(eq_string for _, eq_string in derive_equation(ham, s).terms)


def upstream_connections(
    ham: SpinHamiltonian, target: PauliString
) -> tuple[frozenset[PauliString], int]:
    """All strings whose equation contains ``target``, plus the ansatz count.

    Candidates are enumerated by three local rules (same weight via a field
    entry, weight - 1 via a coupling that grows the candidate back, weight + 1
    via a coupling that shrinks it back). Each candidate differs from the
    target on a bounded pattern, so the number examined is exactly
    ``2 n + 2 n (n - 1) + 6 n (N - n)`` for target weight n on N qubits,
    which is at most ``9 N^2 / 4``.

    Because every hierarchy connection is generated by a single commutator
    route, checking the one relevant coefficient against :data:`COEFF_TOL`
    reproduces membership in :func:`downstream` exactly.
    """
    _check_string(ham, target)
    if target.is_identity:
        return frozenset(), 0

    found: set[PauliString] = set()
    examined = 0
    in_target = set(target.sites)

    # same weight: the field entry h_i^{partner(mu_i, nu_i)} must act on site i
    for i, nu_i in target.factors:
        for mu_i in (1, 2, 3):
            if mu_i == nu_i:
                continue
            examined += 1
            if abs(ham.field(i, levi_partner(mu_i, nu_i))) >= COEFF_TOL:
                found.add(target.with_axis(i, mu_i))

    # weight - 1: the candidate lacks site j; the coupling between the rotated
    # site i and the re-attached site j must be present
    for j, nu_j in target.factors:
        for i, nu_i in target.factors:
            if i == j:
                continue
            for mu_i in (1, 2, 3):
                if mu_i == nu_i:
                    continue
                examined += 1
                v = ham.coupling(i, j, levi_partner(mu_i, nu_i), nu_j)
                if 0.5 * abs(v) >= COEFF_TOL:
                    found.add(target.without_site(j).with_axis(i, mu_i))

    # weight + 1: the candidate carries an extra site i that the coupling
    # V_ij drops while rotating site j
    for i in range(1, ham.n_qubits + 1):
        if i in in_target:
            continue
        for j, nu_j in target.factors:
            for mu_i in (1, 2, 3):
                for mu_j in (1, 2, 3):
                    if mu_j == nu_j:
                        continue
                    examined += 1
                    v = ham.coupling(i, j, mu_i, levi_partner(mu_j, nu_j))
                    if 0.5 * abs(v) >= COEFF_TOL:
                        found.add(target.with_axis(j, mu_j).with_axis(i, mu_i))

    return frozenset(found), examined


def upstream(ham: SpinHamiltonian, target: PauliString) -> frozenset[PauliString]:
    return upstream_connections(ham, target)[0]


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
        return cls(
            tuple(BbgkyEquation.from_dict(e) for e in data["equations"]),
            tuple(PauliString.parse(t) for t in data["correlators"]),
            len(data["seeds"]),
            int(data["r"]),
        )


def select_subset(
    ham: SpinHamiltonian, seeds: Sequence[PauliString], radius: int
) -> HierarchySubset:
    """Grow the seed set ``radius`` times along hierarchy connections.

    Each iteration adds both downstream and upstream neighbours of the
    current set, then one equation is derived per member. RHS strings that
    fall outside the set become constraint-free correlators (they get
    measured and extrapolated, but carry no equation of their own).
    """
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("seeds must be non-empty")
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be distinct")
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    for s in seeds:
        _check_string(ham, s)

    cache: dict[PauliString, BbgkyEquation] = {}

    def equation(s: PauliString) -> BbgkyEquation:
        if s not in cache:
            cache[s] = derive_equation(ham, s)
        return cache[s]

    members = set(seeds)
    frontier = set(seeds)
    for _ in range(radius):
        grown: set[PauliString] = set()
        for s in frontier:
            grown.update(equation(s).strings)
            grown.update(upstream(ham, s))
        frontier = grown - members
        if not frontier:
            break
        members.update(frontier)

    rhs = {string for s in members for string in equation(s).strings}
    remainder = sorted((members | rhs) - set(seeds), key=lambda s: s.sort_key())
    correlators = seeds + tuple(remainder)
    equations = tuple(equation(s) for s in correlators if s in members)
    return HierarchySubset(equations, correlators, len(seeds), radius)


#: :func:`decompose` enumerates all 4**n strings, so it stops at this size
DECOMPOSE_MAX_QUBITS = 6


def decompose(ham: SpinHamiltonian) -> list[int]:
    """Sizes of the connected components of the full hierarchy graph, in
    ascending order, from all ``4**n_qubits`` strings."""
    if ham.n_qubits > DECOMPOSE_MAX_QUBITS:
        raise ResourceLimitError(
            f"decompose enumerates 4**{ham.n_qubits} strings; cap is {DECOMPOSE_MAX_QUBITS} qubits"
        )
    # union-find over the strings; each value is a stored key object, so
    # roots are compared by identity
    parent: dict[PauliString, PauliString] = {}

    def find(s: PauliString) -> PauliString:
        s = parent.setdefault(s, s)
        while parent[s] is not s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    for s in all_strings(ham.n_qubits):
        root = find(s)
        for t in downstream(ham, s):
            other = find(t)
            if other is not root:
                parent[other] = root
    sizes: dict[PauliString, int] = {}
    for s in parent:
        root = find(s)
        sizes[root] = sizes.get(root, 0) + 1
    return sorted(sizes.values())
