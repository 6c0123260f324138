"""Pauli-string primitives shared across the package.

Conventions used everywhere:

* Sites are numbered ``1 .. n_qubits``. Axis indices 1, 2, 3 mean the
  Pauli X, Y, Z matrices.
* In dense matrices site 1 is the leftmost (most significant) tensor
  factor, and ``sigma^3 |0> = +|0>``.
* A computational-basis label such as ``"0101"`` lists sites left to
  right, so its first character belongs to site 1.
* The text token for a string lists one ``<letter><site>`` item per
  factor in ascending site order, e.g. ``"X1 Z3"``; the identity is
  written ``"I"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Mapping

import numpy as np

AXIS_TO_LETTER = {1: "X", 2: "Y", 3: "Z"}
LETTER_TO_AXIS = {"X": 1, "Y": 2, "Z": 3}

PAULI_2X2 = {
    0: np.eye(2, dtype=complex),
    1: np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    2: np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    3: np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


@dataclass(frozen=True)
class PauliString:
    """Product of single-site Pauli operators.

    Stored as a sorted tuple of ``(site, axis)`` pairs; the empty tuple is
    the identity. Instances are immutable and hashable, so they can be used
    as dictionary keys while accumulating operator algebra.
    """

    factors: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        items: Iterable
        if isinstance(self.factors, Mapping):
            items = self.factors.items()
        else:
            items = self.factors
        pairs = []
        seen = set()
        for site, axis in items:
            site = int(site)
            axis = int(axis)
            if site < 1:
                raise ValueError(f"site index must be >= 1, got {site}")
            if axis not in (1, 2, 3):
                raise ValueError(f"axis must be 1, 2 or 3, got {axis}")
            if site in seen:
                raise ValueError(f"duplicate site {site} in Pauli string")
            seen.add(site)
            pairs.append((site, axis))
        object.__setattr__(self, "factors", tuple(sorted(pairs)))

    # -- construction helpers -------------------------------------------------

    @classmethod
    def single(cls, site: int, axis: int) -> "PauliString":
        return cls(((site, axis),))

    @classmethod
    def parse(cls, text: str) -> "PauliString":
        """Parse a token such as ``"X1 Z3"``; ``"I"`` or ``""`` is the identity."""
        body = text.strip()
        if body in ("", "I"):
            return cls()
        pairs = []
        for item in body.split():
            letter, digits = item[:1], item[1:]
            if letter not in LETTER_TO_AXIS or not digits.isdigit():
                raise ValueError(f"cannot parse Pauli factor {item!r}")
            pairs.append((int(digits), LETTER_TO_AXIS[letter]))
        return cls(tuple(pairs))

    # -- basic queries --------------------------------------------------------

    @property
    def sites(self) -> tuple[int, ...]:
        return tuple(site for site, _ in self.factors)

    @property
    def is_identity(self) -> bool:
        return not self.factors

    def __len__(self) -> int:
        return len(self.factors)

    def max_site(self) -> int:
        return self.factors[-1][0] if self.factors else 0

    # -- derived strings ------------------------------------------------------

    def with_axis(self, site: int, axis: int) -> "PauliString":
        """Return a copy with ``site`` carrying ``axis`` (added or replaced)."""
        pairs = tuple((s, a) for s, a in self.factors if s != site)
        return PauliString(pairs + ((site, axis),))

    def without_site(self, site: int) -> "PauliString":
        return PauliString(tuple((s, a) for s, a in self.factors if s != site))

    # -- ordering and text ----------------------------------------------------

    def sort_key(self) -> tuple:
        """Canonical order: by weight, then by the (site, axis) sequence."""
        return (len(self.factors), self.factors)

    def token(self) -> str:
        if not self.factors:
            return "I"
        return " ".join(f"{AXIS_TO_LETTER[a]}{s}" for s, a in self.factors)

    def __str__(self) -> str:
        return self.token()

    # -- dense form ------------------------------------------------------------

    def matrix(self, n_qubits: int) -> np.ndarray:
        return dense_pauli(self, n_qubits)


def dense_pauli(string: PauliString, n_qubits: int) -> np.ndarray:
    """Dense matrix of a Pauli string, site 1 as the leftmost factor."""
    if string.max_site() > n_qubits:
        raise ValueError(
            f"string {string.token()!r} does not fit on {n_qubits} qubits"
        )
    axes = dict(string.factors)
    out = np.array([[1.0 + 0.0j]])
    for site in range(1, n_qubits + 1):
        out = np.kron(out, PAULI_2X2[axes.get(site, 0)])
    return out


def all_strings(n_qubits: int, include_identity: bool = True) -> Iterator[PauliString]:
    """Iterate over all ``4**n_qubits`` Pauli strings (axis 0 = absent site)."""
    for assignment in product((0, 1, 2, 3), repeat=n_qubits):
        pairs = tuple(
            (site, axis) for site, axis in enumerate(assignment, start=1) if axis
        )
        if not pairs and not include_identity:
            continue
        yield PauliString(pairs)


def parse_basis_label(label: str, n_qubits: int) -> tuple[int, ...]:
    """Turn a label like ``"0101"`` into per-site bits, site 1 first."""
    if len(label) != n_qubits or any(c not in "01" for c in label):
        raise ValueError(
            f"basis label must be {n_qubits} characters of 0/1, got {label!r}"
        )
    return tuple(int(c) for c in label)


def basis_expectation(string: PauliString, bits: tuple[int, ...]) -> float:
    """Exact expectation of a Pauli string in a computational basis state.

    Each Z factor contributes +1 on ``|0>`` and -1 on ``|1>``; any X or Y
    factor makes the expectation vanish.
    """
    value = 1.0
    for site, axis in string.factors:
        if site > len(bits):
            raise ValueError(f"string references site {site} beyond the register")
        if axis != 3:
            return 0.0
        value *= 1.0 - 2.0 * bits[site - 1]
    return value


@dataclass(frozen=True)
class ObservableCombination:
    """Affine combination ``constant_offset + sum_k weight_k * <string_k>``."""

    constant_offset: float = 0.0
    terms: tuple[tuple[float, PauliString], ...] = ()

    def __post_init__(self) -> None:
        merged: dict[PauliString, float] = {}
        for weight, string in self.terms:
            if not isinstance(string, PauliString):
                raise ValueError("observable terms must pair weights with PauliStrings")
            merged[string] = merged.get(string, 0.0) + float(weight)
        terms = tuple(
            (w, s)
            for s, w in sorted(merged.items(), key=lambda kv: kv[0].sort_key())
            if w != 0.0
        )
        object.__setattr__(self, "constant_offset", float(self.constant_offset))
        object.__setattr__(self, "terms", terms)

    @property
    def strings(self) -> tuple[PauliString, ...]:
        return tuple(s for _, s in self.terms)

    def dense(self, n_qubits: int) -> np.ndarray:
        dim = 2**n_qubits
        out = self.constant_offset * np.eye(dim, dtype=complex)
        for weight, string in self.terms:
            out += weight * dense_pauli(string, n_qubits)
        return out

    def evaluate(self, values: Mapping[PauliString, float]) -> float:
        return self.constant_offset + sum(w * values[s] for w, s in self.terms)
