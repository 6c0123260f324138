import numpy as np
import pytest

from bbgky_zne.pauli import (
    ObservableCombination,
    PauliString,
    all_strings,
    anticommute,
    code,
    decode,
    multiply,
    parse_basis_label,
)
from oracles import axes_of, dense_combination, dense_pauli, dense_string


@pytest.mark.parametrize("token", ["I", "Z1", "X1 Z3", "Y2 X4", "X1 Y2 Z3"])
def test_token_round_trip(token):
    assert PauliString.parse(token).token() == token


def test_factors_are_canonically_sorted():
    s = PauliString(((3, 1), (1, 3)))
    assert s.factors == ((1, 3), (3, 1))
    assert s.token() == "Z1 X3"


def test_duplicate_sites_rejected():
    with pytest.raises(ValueError):
        PauliString(((1, 1), (1, 2)))


@pytest.mark.parametrize("factors", [((0, 1),), ((1, 0),), ((1, 4),), ((-2, 3),)])
def test_invalid_factors_rejected(factors):
    with pytest.raises(ValueError):
        PauliString(factors)


def test_parse_rejects_garbage():
    for text in ["Q1", "X0", "X1 X1", "X"]:
        with pytest.raises(ValueError):
            PauliString.parse(text)
    assert PauliString.parse("").is_identity  # bare "" is the identity spelling


def test_multiply_matches_dense_products():
    for n in (2, 3):
        for a in range(4**n):
            for b in range(4**n):
                power, product = multiply(a, b)
                expected = 1j**power * dense_pauli(decode(product, n), n)
                np.testing.assert_array_equal(
                    dense_pauli(decode(a, n), n) @ dense_pauli(decode(b, n), n), expected
                )
    a, b = code(PauliString.parse("X1 Y2"), 3), code(PauliString.parse("Y1 Z3"), 3)
    assert multiply(a, b) == (1, code(PauliString.parse("Z1 Y2 Z3"), 3))
    assert multiply(b, a) == (3, code(PauliString.parse("Z1 Y2 Z3"), 3))


def test_identity_properties():
    identity = PauliString(())
    assert identity.is_identity
    assert len(identity) == 0
    assert identity.token() == "I"
    assert identity.max_site() == 0


def test_dense_matches_reference(rng):
    for n in (1, 2, 3, 4):
        for _ in range(8):
            axes = tuple(int(a) for a in rng.integers(0, 4, size=n))
            factors = tuple((k + 1, a) for k, a in enumerate(axes) if a)
            ours = dense_pauli(PauliString(factors), n)
            np.testing.assert_allclose(ours, dense_string(axes), atol=1e-14)


def test_dense_is_involutory_and_traceless(rng):
    n = 3
    for _ in range(5):
        axes = tuple(int(a) for a in rng.integers(0, 4, size=n))
        matrix = dense_pauli(
            PauliString(tuple((k + 1, a) for k, a in enumerate(axes) if a)), n
        )
        np.testing.assert_allclose(matrix @ matrix, np.eye(2**n), atol=1e-13)
        if any(axes):
            assert abs(np.trace(matrix)) < 1e-13


def test_all_strings_enumerates_the_basis():
    strings = list(all_strings(2))
    assert len(strings) == 16
    assert len(set(strings)) == 16
    no_identity = list(all_strings(2, include_identity=False))
    assert len(no_identity) == 15
    assert all(not s.is_identity for s in no_identity)


@pytest.mark.parametrize("n_qubits", [0, 1, 2, 3])
def test_code_enumerates_all_strings(n_qubits):
    codes = [code(s, n_qubits) for s in all_strings(n_qubits)]
    assert codes == list(range(4**n_qubits))


def test_code_rejects_strings_beyond_the_register():
    assert code(PauliString.parse("Y1 Z3"), 3) == 0b100011
    with pytest.raises(ValueError):
        code(PauliString.parse("Z3"), 2)


def site_product(a_axis: int, b_axis: int) -> tuple[int, int]:
    """One site's ``sigma^a sigma^b = 1j**power sigma^axis``: equal axes
    cancel, and two different axes give the third with ``+1j`` for the cyclic
    order X -> Y -> Z."""
    if 0 in (a_axis, b_axis) or a_axis == b_axis:
        return 0, a_axis ^ b_axis
    return (1 if (b_axis - a_axis) % 3 == 1 else 3), a_axis ^ b_axis


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
def test_codes_follow_the_product_rule(n_qubits):
    for a in range(4**n_qubits):
        for b in range(4**n_qubits):
            sites = [
                site_product(a >> 2 * k & 3, b >> 2 * k & 3) for k in range(n_qubits)
            ]
            power = sum(p for p, _ in sites) % 4
            product = sum(axis << 2 * k for k, (_, axis) in enumerate(sites))
            assert multiply(a, b) == (power, product)
            assert anticommute(a, b) == bool(power % 2)


@pytest.mark.parametrize("n_qubits", [0, 1, 2, 3])
def test_decode_inverts_code(n_qubits):
    for a in range(4**n_qubits):
        assert code(decode(a, n_qubits), n_qubits) == a
    for s in all_strings(n_qubits):
        assert decode(code(s, n_qubits), n_qubits) == s
    with pytest.raises(ValueError):
        decode(4**n_qubits, n_qubits)


def test_codes_of_forty_sites():
    s = PauliString.parse("X1 Y17 Z33 X40")
    a = code(s, 40)
    assert a == 1 << 78 | 2 << 46 | 3 << 14 | 1
    assert decode(a, 40) == s
    t = PauliString.parse("Z1 Y17 Z40")  # anticommutes on sites 1 and 40 only
    power, product = multiply(a, code(t, 40))
    assert decode(product, 40) == PauliString.parse("Y1 Z33 Y40")
    assert power == 2 and not anticommute(a, code(t, 40))
    assert anticommute(a, code(PauliString.parse("Z40"), 40))


def test_parse_basis_label():
    assert parse_basis_label("0101", 4) == (0, 1, 0, 1)
    with pytest.raises(ValueError):
        parse_basis_label("01", 4)
    with pytest.raises(ValueError):
        parse_basis_label("01a1", 4)


def test_combination_merges_and_drops_zero_terms():
    z1 = PauliString.parse("Z1")
    z2 = PauliString.parse("Z2")
    combo = ObservableCombination(1.0, ((0.5, z1), (0.25, z2), (0.5, z1), (0.0, z2)))
    assert combo.terms == ((1.0, z1), (0.25, z2))
    assert combo.strings == (z1, z2)


def test_combination_dense_and_evaluate():
    z1 = PauliString.parse("Z1")
    x2 = PauliString.parse("X2")
    combo = ObservableCombination(2.0, ((0.5, z1), (-1.5, x2)))
    dense = dense_combination(combo, 2)
    expected = (
        2.0 * np.eye(4) + 0.5 * dense_pauli(z1, 2) - 1.5 * dense_pauli(x2, 2)
    )
    np.testing.assert_allclose(dense, expected, atol=1e-14)
    assert combo.evaluate({z1: 1.0, x2: 0.5}) == pytest.approx(2.0 + 0.5 - 0.75)
