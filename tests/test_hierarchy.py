import numpy as np
import pytest

from bbgky_zne.errors import ResourceLimitError
from bbgky_zne.hierarchy import (
    COEFF_TOL,
    BbgkyEquation,
    HierarchySubset,
    SpinHamiltonian,
    decompose,
    derive_equation,
    downstream,
    select_subset,
)
from bbgky_zne.pauli import PauliString, all_strings
from bbgky_zne.schwinger import SchwingerParams, build_hamiltonian, hierarchy_seeds
from conftest import random_hamiltonian, random_string
from oracles import (
    axes_of,
    component_sizes,
    dense_terms,
    equation_coefficients,
    inverse_connection_map,
)


def test_hamiltonian_validation():
    with pytest.raises(ValueError):
        SpinHamiltonian(2, np.zeros((3, 3)), np.zeros((2, 2, 3, 3)))
    V = np.zeros((2, 2, 3, 3))
    V[1, 0, 0, 0] = 1.0  # lower triangle must stay empty
    with pytest.raises(ValueError):
        SpinHamiltonian(2, np.zeros((2, 3)), V)
    ham = SpinHamiltonian(2, np.zeros((2, 3)), np.zeros((2, 2, 3, 3)))
    with pytest.raises(ValueError):
        ham.h[0, 0] = 1.0  # arrays are frozen


def test_hamiltonian_rejects_fractional_qubit_counts():
    with pytest.raises(ValueError, match="n_qubits"):
        SpinHamiltonian(2.5, np.zeros((2, 3)), np.zeros((2, 2, 3, 3)))
    assert SpinHamiltonian(2.0, np.zeros((2, 3)), np.zeros((2, 2, 3, 3))).n_qubits == 2


def test_build_canonicalizes_site_order():
    ham = SpinHamiltonian.build(3, couplings={(3, 1, 2, 3): 1.5})
    assert ham.coupling(1, 3, 3, 2) == 1.5
    assert ham.coupling(3, 1, 2, 3) == 1.5
    assert ham.V[0, 2, 2, 1] == 1.5
    with pytest.raises(ValueError):
        SpinHamiltonian.build(3, couplings={(2, 2, 1, 1): 1.0})


def test_dense_hamiltonian_is_hermitian(rng):
    ham = random_hamiltonian(rng, 3)
    dense = dense_terms(ham)
    np.testing.assert_allclose(dense, dense.conj().T, atol=1e-13)


def test_field_only_equation_rotates_the_axis():
    ham = SpinHamiltonian.build(1, fields={(1, 3): 0.7})
    eq = derive_equation(ham, PauliString.parse("X1"))
    assert eq.terms == ((-0.7, PauliString.parse("Y1")),)


def test_coupling_equation_and_its_inverse():
    ham = SpinHamiltonian.build(2, couplings={(1, 2, 3, 3): 0.8})
    x1 = PauliString.parse("X1")
    grown = PauliString.parse("Y1 Z2")
    eq = derive_equation(ham, x1)
    assert eq.terms == ((-0.4, grown),)
    back = derive_equation(ham, grown)
    assert back.terms == ((0.4, x1),)
    assert downstream(ham, x1) == frozenset({grown})
    assert downstream(ham, grown) == frozenset({x1})


def test_identity_equation_is_empty(rng):
    ham = random_hamiltonian(rng, 2)
    eq = derive_equation(ham, PauliString(()))
    assert eq.terms == ()


@pytest.mark.parametrize("n_qubits", [2, 3, 4])
def test_equation_matches_dense_commutator(rng, n_qubits):
    for _ in range(6):
        ham = random_hamiltonian(rng, n_qubits)
        for _ in range(6):
            s = random_string(rng, n_qubits)
            eq = derive_equation(ham, s)
            expected = equation_coefficients(n_qubits, ham.h, ham.V, axes_of(s.factors, n_qubits))
            got = {axes_of(t.factors, n_qubits): c for c, t in eq.terms}
            assert set(got) == set(expected)
            for key, coeff in expected.items():
                assert got[key] == pytest.approx(coeff, abs=1e-11)


@pytest.mark.parametrize("n_qubits", [2, 3])
def test_downstream_matches_brute_force_inversion(rng, n_qubits):
    # the dense target -> sources map equals the forward map: the graph is undirected
    for _ in range(3):
        ham = random_hamiltonian(rng, n_qubits)
        inverse = inverse_connection_map(n_qubits, ham.h, ham.V)
        for s in all_strings(n_qubits, include_identity=False):
            got = {axes_of(t.factors, n_qubits) for t in downstream(ham, s)}
            assert got == inverse[axes_of(s.factors, n_qubits)]


def test_equation_cost_is_polynomial(rng):
    n_qubits = 4
    ham = random_hamiltonian(rng, n_qubits)
    assert len(ham.terms) <= 3 * n_qubits + 9 * n_qubits * (n_qubits - 1) // 2
    for s in all_strings(n_qubits):
        assert len(derive_equation(ham, s).terms) <= len(ham.terms)


def test_sparse_downstream_prunes_missing_couplings():
    ham = SpinHamiltonian.build(
        3, fields={(1, 3): 1.0}, couplings={(1, 2, 1, 1): 2.0}
    )
    # site 3 is fully decoupled, so nothing involving it feeds X1
    sources = downstream(ham, PauliString.parse("X1"))
    assert sources
    assert all(3 not in s.sites for s in sources)


def test_terms_list_fields_then_couplings_in_index_order():
    ham = SpinHamiltonian.build(
        3,
        fields={(2, 1): 0.6, (1, 3): -1.0, (1, 2): 0.0},
        couplings={(2, 3, 1, 1): 0.8, (3, 1, 2, 3): 0.4, (1, 2, 3, 3): 0.2},
    )
    assert [(s.token(), c) for s, c in ham.terms] == [
        ("Z1", -0.5),
        ("X2", 0.3),
        ("Z1 Z2", 0.05),
        ("Z1 Y3", 0.1),
        ("X2 X3", 0.2),
    ]


def test_equation_round_trip_via_dict(rng):
    ham = random_hamiltonian(rng, 3)
    eq = derive_equation(ham, random_string(rng, 3))
    again = BbgkyEquation.from_dict(eq.to_dict())
    assert again == eq


def test_subset_prefix_and_closure(rng):
    ham = random_hamiltonian(rng, 3)
    seeds = (PauliString.parse("Z1"), PauliString.parse("Z2"))
    subset = select_subset(ham, seeds, 1)
    assert subset.correlators[: len(seeds)] == seeds
    members = set(subset.correlators)
    for eq in subset.equations:
        assert eq.lhs in members
        assert all(s in members for s in eq.strings)
    # equation order follows correlator order
    positions = [subset.correlators.index(eq.lhs) for eq in subset.equations]
    assert positions == sorted(positions)


def test_subset_radius_zero_keeps_only_seed_equations(rng):
    ham = random_hamiltonian(rng, 3)
    seeds = (PauliString.parse("Z1"),)
    subset = select_subset(ham, seeds, 0)
    assert subset.n_equations == 1
    assert subset.equations[0].lhs == seeds[0]


def test_subset_growth_saturates(rng):
    ham = random_hamiltonian(rng, 2)
    seeds = (PauliString.parse("Z1"),)
    sizes = [select_subset(ham, seeds, r).n_correlators for r in range(6)]
    assert sizes == sorted(sizes)
    assert sizes[-1] == sizes[-2]  # saturated well before r=5
    assert sizes[-1] <= 15


def test_subset_rejects_bad_seeds(rng):
    ham = random_hamiltonian(rng, 2)
    with pytest.raises(ValueError):
        select_subset(ham, (), 0)
    z1 = PauliString.parse("Z1")
    with pytest.raises(ValueError):
        select_subset(ham, (z1, z1), 0)
    with pytest.raises(ValueError):
        select_subset(ham, (PauliString.parse("Z3"),), 0)


def test_subset_of_the_forty_site_chain():
    # codes of 40 sites hold 80 bits: no fixed-width mask may cut them off
    ham = build_hamiltonian(SchwingerParams(n_qubits=40))
    subset = select_subset(ham, hierarchy_seeds(40), 1)
    assert (subset.n_correlators, subset.n_equations) == (3236, 118)
    last = derive_equation(ham, PauliString.parse("Z40"))
    assert subset.equations[39] == last
    assert [s.token() for s in last.strings] == ["X39 Y40", "Y39 X40"]


@pytest.mark.parametrize("radius", [2.7, -1, "1"])
def test_subset_rejects_bad_radius(rng, radius):
    ham = random_hamiltonian(rng, 3)
    doc = select_subset(ham, (PauliString.parse("Z1"),), 1).to_dict()
    doc["r"] = radius
    with pytest.raises(ValueError, match="radius"):
        HierarchySubset.from_dict(doc)


def test_subset_round_trip_via_dict(rng):
    ham = random_hamiltonian(rng, 3)
    subset = select_subset(ham, (PauliString.parse("Z1"),), 1)
    again = HierarchySubset.from_dict(subset.to_dict())
    assert again.correlators == subset.correlators
    assert again.seed_count == subset.seed_count
    assert again.radius == subset.radius
    assert again.equations == subset.equations


def test_decompose_matches_union_find_oracle(rng):
    for n_qubits in (2, 3):
        ham = random_hamiltonian(rng, n_qubits)
        assert decompose(ham) == component_sizes(n_qubits, ham.h, ham.V)


@pytest.mark.parametrize("n_qubits", [2, 3, 4])
def test_decompose_of_sparse_hamiltonians_matches_union_find_oracle(rng, n_qubits):
    fields = {(int(rng.integers(1, n_qubits + 1)), int(rng.integers(1, 4))): rng.normal()}
    couplings = {}
    for _ in range(n_qubits - 1):
        i, j = sorted(int(v) for v in rng.choice(np.arange(1, n_qubits + 1), 2, replace=False))
        couplings[(i, j, int(rng.integers(1, 4)), int(rng.integers(1, 4)))] = rng.normal()
    # |2c| below COEFF_TOL: derive_equation drops this edge, so decompose must too
    fields[(1, 1)] = 0.2 * COEFF_TOL
    ham = SpinHamiltonian.build(n_qubits, fields, couplings)
    assert decompose(ham) == component_sizes(n_qubits, ham.h, ham.V)


def test_decompose_of_the_eight_site_chain():
    ham = build_hamiltonian(SchwingerParams(n_qubits=8))
    assert decompose(ham) == [1, 1, 32766, 32768]


def test_decompose_respects_qubit_cap():
    ham = SpinHamiltonian(9, np.zeros((9, 3)), np.zeros((9, 9, 3, 3)))
    with pytest.raises(ResourceLimitError):
        decompose(ham)
