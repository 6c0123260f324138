"""Pauli-string primitives shared across the package.

Conventions used everywhere:

* Sites are numbered ``1 .. n_qubits``. Axis indices 1, 2, 3 mean the
  Pauli X, Y, Z matrices.
* A computational-basis label such as ``"0101"`` lists sites left to
  right, so its first character belongs to site 1, the most significant
  bit of the basis state's integer, and ``sigma^3 |0> = +|0>``.
* The text token for a string lists one ``<letter><site>`` item per
  factor in ascending site order, e.g. ``"X1 Z3"``; the identity is
  written ``"I"``.
* The integer code of a string on n sites holds two bits per site, site 1
  most significant, with the axis numbers as digits (I=0, X=1, Y=2, Z=3).
  It is the string's index in :func:`all_strings` order and its flat index
  in a ``(4,) * n`` array. The product of two strings has the XOR of their
  codes, up to phase, because per site two different axes give the third.
* :func:`multiply` on codes is the one Pauli product of the package: the
  hierarchy's equations and components and the simulator's Trotter
  rotations all read their phases from it, or from :func:`anticommute`,
  its parity. The exact reference acts with the same per-site rule on
  basis states.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping

AXIS_TO_LETTER = {1: "X", 2: "Y", 3: "Z"}
LETTER_TO_AXIS = {"X": 1, "Y": 2, "Z": 3}


@dataclass(frozen=True)
class PauliString:
    """Product of single-site Pauli operators.

    Stored as a sorted tuple of ``(site, axis)`` pairs; the empty tuple is
    the identity. Instances are immutable and hashable, so they can be used
    as dictionary keys while accumulating operator algebra.
    """

    factors: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        pairs = []
        seen = set()
        for site, axis in self.factors:
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
        if not isinstance(text, str):
            raise ValueError(f"a Pauli token must be a string, got {type(text).__name__}")
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


def all_strings(n_qubits: int, include_identity: bool = True) -> Iterator[PauliString]:
    """Iterate over all ``4**n_qubits`` Pauli strings in code order."""
    for a in range(0 if include_identity else 1, 4**n_qubits):
        yield decode(a, n_qubits)


def code(string: PauliString, n_qubits: int) -> int:
    """The string's index in ``all_strings(n_qubits)`` order: base 4, site 1
    most significant, the axis as the digit."""
    if n_qubits < 0 or string.max_site() > n_qubits:
        raise ValueError(f"string {string.token()!r} does not fit on {n_qubits} qubits")
    return sum(axis << 2 * (n_qubits - site) for site, axis in string.factors)


def decode(a: int, n_qubits: int) -> PauliString:
    """The string with code ``a`` on ``n_qubits`` sites; inverse of :func:`code`."""
    if not 0 <= a < 4**n_qubits:
        raise ValueError(f"code {a} does not fit on {n_qubits} qubits")
    return PauliString(
        tuple(
            (site, axis)
            for site in range(1, n_qubits + 1)
            if (axis := a >> 2 * (n_qubits - site) & 3)
        )
    )


def _low_bits(a: int) -> int:
    """``0b0101...01`` over the digits of code ``a``: the low bit of each site."""
    return (1 << (a.bit_length() + 1 & ~1)) // 3


@lru_cache(maxsize=4096)
def _swap_bits(b: int) -> int:
    """Code ``b`` with the two bits of each digit swapped (X <-> Y). Cached,
    because the hierarchy tests each of 4**n codes against the same few
    term codes."""
    low = _low_bits(b)
    return (b & low) << 1 | b >> 1 & low


def anticommute(a: int, b: int) -> bool:
    """Whether the strings with codes ``a`` and ``b`` anticommute.

    With the digit bits (hi, lo) = X (0, 1), Y (1, 0), Z (1, 1), two axes on
    one site anticommute exactly when ``hi_a lo_b ^ lo_a hi_b`` is 1, the
    parity of the digit of a AND the swapped digit of b, and two strings
    anticommute when an odd number of sites do (the symplectic product of
    Aaronson and Gottesman). Agrees with the parity of :func:`multiply`'s
    power."""
    return bool((a & _swap_bits(b)).bit_count() & 1)


def multiply(a: int, b: int) -> tuple[int, int]:
    """The product of the strings with codes ``a`` and ``b``, as ``(power,
    a ^ b)`` with ``a * b = 1j**power * string(a ^ b)``.

    Per site let x = hi ^ lo and z = hi, so that the axis is
    ``1j**(x z) X**x Z**z`` (Y = iXZ). Moving ``Z**z_a`` past ``X**x_b``
    gives ``(-1)**(z_a x_b)``, so ``power = |Y in a| + |Y in b| - |Y in a^b|
    + 2 |z_a x_b|`` mod 4, with x z = 1 exactly on Y (Aaronson and
    Gottesman's phase rule). ``power`` is odd exactly when the two strings
    anticommute: then per site two different axes give the third with ``+1j``
    for the cyclic order X -> Y -> Z."""
    c = a ^ b
    low = _low_bits(a | b)
    ys = (a >> 1 & ~a & low).bit_count() + (b >> 1 & ~b & low).bit_count()
    power = ys - (c >> 1 & ~c & low).bit_count() + 2 * (a >> 1 & (b ^ b >> 1) & low).bit_count()
    return power % 4, c


def parse_basis_label(label: str, n_qubits: int) -> tuple[int, ...]:
    """Turn a label like ``"0101"`` into per-site bits, site 1 first."""
    if len(label) != n_qubits or any(c not in "01" for c in label):
        raise ValueError(
            f"basis label must be {n_qubits} characters of 0/1, got {label!r}"
        )
    return tuple(int(c) for c in label)


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

    def evaluate(self, values: Mapping[PauliString, float]) -> float:
        return self.constant_offset + sum(w * values[s] for w, s in self.terms)
