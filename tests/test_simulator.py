import math
from functools import reduce

import numpy as np
import pytest

from bbgky_zne.errors import ResourceLimitError
from bbgky_zne.hierarchy import SpinHamiltonian
from bbgky_zne.pauli import PauliString, dense_pauli
from bbgky_zne.simulator import (
    EvolutionPlan,
    MeasurementSet,
    NoiseModel,
    TrotterFactor,
    depolarize,
    error_level,
    evolve_exact,
    evolve_noisy,
    factor_unitary,
    fold_schedule,
    sample_estimate,
    shifted_error_level,
    trotter_factors,
)
from conftest import random_hamiltonian, random_measurements
from oracles import dense_hamiltonian, depolarize_reference, rk4_expectations


def test_error_level_values():
    assert error_level(1, 1.0) == 3.0
    assert error_level(1, 1.5) == 3.0
    assert error_level(4, 1.5) == 4.0
    assert error_level(10, 0.0) == 1.0
    # deep-circuit limit approaches 2 eta + 1
    assert error_level(10**6, 1.5) == pytest.approx(4.0, abs=1e-5)


def test_error_level_validation():
    with pytest.raises(ValueError):
        error_level(0, 1.0)
    with pytest.raises(ValueError):
        error_level(3, -0.1)


def test_shifted_error_level_statistics():
    rng = np.random.default_rng(5)
    shots = 256
    draws = np.array([shifted_error_level(2, 1.0, shots, rng) for _ in range(4000)])
    assert abs(draws.mean() - 3.0) < 3.0 / math.sqrt(4000 * shots) * 4
    assert abs(draws.std() - 1.0 / math.sqrt(shots)) < 0.005
    assert draws.min() >= 3.0 - 5.0 / math.sqrt(shots)
    assert draws.max() <= 3.0 + 5.0 / math.sqrt(shots)


@pytest.mark.parametrize("eta", [0.0, 0.4, 1.0, 1.5, 2.0])
def test_fold_schedule_cumulative_counts(eta):
    pairs = fold_schedule(eta, 12)
    cumulative = np.cumsum(pairs)
    for s in range(1, 13):
        assert cumulative[s - 1] == math.floor(eta * s)


def test_trotter_factors_order_and_count(rng):
    ham = random_hamiltonian(rng, 2)
    dt = 0.1
    first = trotter_factors(ham, dt, 1)
    assert len(first) == 6 + 9  # 2*3 field entries + 9 coupling entries
    for factor in first[:6]:
        assert len(factor.string) == 1
    for factor in first[6:]:
        assert len(factor.string) == 2
    second = trotter_factors(ham, dt, 2)
    assert len(second) == 2 * len(first)
    # palindrome at half angles
    for a, b in zip(second, second[::-1]):
        assert a.string == b.string
        assert a.angle == b.angle
    assert second[0].angle == pytest.approx(0.5 * first[0].angle)


def test_trotter_factor_angles(rng):
    ham = SpinHamiltonian.build(
        2, fields={(1, 3): 0.8}, couplings={(1, 2, 1, 1): 0.4}
    )
    factors = trotter_factors(ham, 0.2, 1)
    assert [f.string.token() for f in factors] == ["Z1", "X1 X2"]
    assert factors[0].angle == pytest.approx(0.5 * 0.8 * 0.2)
    assert factors[1].angle == pytest.approx(0.25 * 0.4 * 0.2)


def test_factor_unitary_matches_exponential(rng):
    factor = TrotterFactor(PauliString.parse("X1 Z2"), 0.37)
    pauli = dense_pauli(factor.string, 2)
    w, v = np.linalg.eigh(pauli)
    expected = v @ np.diag(np.exp(-1j * factor.angle * w)) @ v.conj().T
    np.testing.assert_allclose(factor_unitary(factor, 2), expected, atol=1e-13)


@pytest.mark.parametrize("order,ratio", [(1, 4.0), (2, 8.0)])
def test_step_error_scales_with_dt(rng, order, ratio):
    ham = random_hamiltonian(rng, 2)
    dense = dense_hamiltonian(2, ham.h, ham.V)
    w, v = np.linalg.eigh(dense)

    def step_error(dt):
        exact = v @ np.diag(np.exp(-1j * w * dt)) @ v.conj().T
        unitaries = [factor_unitary(f, 2) for f in trotter_factors(ham, dt, order)]
        product = reduce(lambda acc, u: u @ acc, unitaries, np.eye(4, dtype=complex))
        return np.linalg.norm(product - exact, 2)

    coarse, fine = step_error(0.02), step_error(0.01)
    assert coarse / fine == pytest.approx(ratio, rel=0.15)


def test_depolarize_matches_reference(rng):
    n = 3
    for sites in ([2], [1, 3], [2, 3]):
        raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = raw @ raw.conj().T
        rho /= np.trace(rho).real
        for p in (0.0, 0.3, 1.0):
            ours = depolarize(rho, sites, p, n)
            np.testing.assert_allclose(
                ours, depolarize_reference(rho, sites, p, n), atol=1e-13
            )
        assert np.trace(depolarize(rho, sites, 0.7, n)) == pytest.approx(1.0)


def test_depolarize_full_strength_mixes_marginal(rng):
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = raw @ raw.conj().T
    rho /= np.trace(rho).real
    out = depolarize(rho, [1], 1.0, 2)
    z1 = dense_pauli(PauliString.parse("Z1"), 2)
    x1 = dense_pauli(PauliString.parse("X1"), 2)
    assert abs(np.einsum("ij,ji->", out, z1)) < 1e-12
    assert abs(np.einsum("ij,ji->", out, x1)) < 1e-12


def test_sample_estimate_statistics():
    rng = np.random.default_rng(11)
    shots = 10240
    draws = np.array([sample_estimate(0.0, shots, rng) for _ in range(2000)])
    assert abs(draws.mean()) < 4.0 / math.sqrt(2000 * shots)
    assert abs(draws.std() - 1.0 / math.sqrt(shots)) < 0.001
    assert sample_estimate(1.0, shots, rng) == 1.0
    assert sample_estimate(-1.0, shots, rng) == -1.0


def test_plan_validation():
    with pytest.raises(ValueError):
        EvolutionPlan(0, 1.0, 1, (0.0,), None, 0)
    with pytest.raises(ValueError):
        EvolutionPlan(4, 1.0, 3, (0.0,), None, 0)
    with pytest.raises(ValueError):
        EvolutionPlan(4, 1.0, 1, (1.0,), None, 0)  # must start at 0
    with pytest.raises(ValueError):
        EvolutionPlan(4, 1.0, 1, (0.0, 1.0, 1.0), None, 0)  # strictly increasing
    with pytest.raises(ValueError):
        EvolutionPlan(4, 1.0, 1, (0.0,), 0, 0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="total_time"):
            EvolutionPlan(4, bad, 1, (0.0,), None, 0)
        with pytest.raises(ValueError, match="fold_levels"):
            EvolutionPlan(4, 1.0, 1, (0.0, 1.0, bad), None, 0)
    plan = EvolutionPlan(4, 2.0, 1, (0.0, 1.5), None, 0)
    assert plan.dt == pytest.approx(0.5)
    assert plan.times == (0.0, 0.5, 1.0, 1.5, 2.0)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(-0.1, 0.0, 0.0)
    with pytest.raises(ValueError):
        NoiseModel(0.0, 1.1, 0.0)
    assert NoiseModel(0.0, 0.0, 0.0).is_zero


def test_noiseless_run_equals_unitary_trotter(rng):
    ham = random_hamiltonian(rng, 2)
    plan = EvolutionPlan(5, 1.0, 1, (0.0, 1.0), None, 0)
    correlators = (PauliString.parse("Z1"), PauliString.parse("X1 Y2"))
    result = evolve_noisy(ham, "01", plan, NoiseModel(0.0, 0.0, 0.0), correlators)

    unitaries = [factor_unitary(f, 2) for f in trotter_factors(ham, plan.dt, 1)]
    step = reduce(lambda acc, u: u @ acc, unitaries, np.eye(4, dtype=complex))
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = 1.0  # |01>
    for s in range(1, 6):
        rho = step @ rho @ step.conj().T
        for q, c in enumerate(correlators):
            expected = float(np.einsum("ij,ji->", rho, dense_pauli(c, 2)).real)
            for k in range(2):  # folding is invisible without noise
                assert result.values[q, s - 1, k] == pytest.approx(expected, abs=1e-12)
    assert result.eps[0, 0] == 1.0
    assert result.eps[0, 1] == 3.0
    np.testing.assert_allclose(result.initial, [1.0, 0.0], atol=1e-14)


def test_evolution_is_deterministic(rng):
    ham = random_hamiltonian(rng, 2)
    plan = EvolutionPlan(4, 1.0, 1, (0.0, 1.0), 512, 123)
    noise = NoiseModel(0.01, 0.02, 0.01)
    correlators = (PauliString.parse("Z1"),)
    a = evolve_noisy(ham, "00", plan, noise, correlators)
    b = evolve_noisy(ham, "00", plan, noise, correlators)
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.eps, b.eps)
    c = evolve_noisy(ham, "00", EvolutionPlan(4, 1.0, 1, (0.0, 1.0), 512, 124), noise, correlators)
    assert not np.array_equal(a.values, c.values)


def test_readout_flip_damps_expectations(rng):
    ham = random_hamiltonian(rng, 2)
    plan = EvolutionPlan(3, 0.6, 1, (0.0,), None, 0)
    correlators = (PauliString.parse("Z1"), PauliString.parse("Z1 Z2"))
    clean = evolve_noisy(ham, "00", plan, NoiseModel(0.0, 0.0, 0.0), correlators)
    q = 0.05
    flipped = evolve_noisy(ham, "00", plan, NoiseModel(0.0, 0.0, q), correlators)
    np.testing.assert_allclose(
        flipped.values[0], (1 - 2 * q) * clean.values[0], atol=1e-12
    )
    np.testing.assert_allclose(
        flipped.values[1], (1 - 2 * q) ** 2 * clean.values[1], atol=1e-12
    )


def test_folding_amplifies_depolarizing_error(rng):
    ham = random_hamiltonian(rng, 2)
    plan = EvolutionPlan(6, 1.2, 1, (0.0, 1.0), None, 0)
    noise = NoiseModel(0.002, 0.01, 0.0)
    correlators = (PauliString.parse("Z1"), PauliString.parse("Z2"))
    ideal = evolve_noisy(ham, "01", plan, NoiseModel(0.0, 0.0, 0.0), correlators)
    noisy = evolve_noisy(ham, "01", plan, noise, correlators)
    base = np.abs(noisy.values[:, :, 0] - ideal.values[:, :, 0]).mean()
    folded = np.abs(noisy.values[:, :, 1] - ideal.values[:, :, 1]).mean()
    assert folded > base


def test_folding_amplifies_on_average_over_sampled_seeds(rng):
    ham = random_hamiltonian(rng, 2)
    noise = NoiseModel(0.002, 0.01, 0.0)
    correlators = (PauliString.parse("Z1"),)
    ideal = evolve_noisy(
        ham, "01", EvolutionPlan(4, 0.8, 1, (0.0,), None, 0),
        NoiseModel(0.0, 0.0, 0.0), correlators,
    ).values[:, :, 0]
    base_dev = []
    fold_dev = []
    for seed in range(100):
        plan = EvolutionPlan(4, 0.8, 1, (0.0, 1.0), 2048, seed)
        run = evolve_noisy(ham, "01", plan, noise, correlators)
        base_dev.append(np.abs(run.values[:, :, 0] - ideal).mean())
        fold_dev.append(np.abs(run.values[:, :, 1] - ideal).mean())
    assert np.mean(fold_dev) > np.mean(base_dev)


def test_evolve_noisy_validation(rng):
    ham = random_hamiltonian(rng, 2)
    plan = EvolutionPlan(2, 0.4, 1, (0.0,), None, 0)
    with pytest.raises(ValueError):
        evolve_noisy(ham, "00", plan, NoiseModel(0.0, 0.0, 0.0), ())
    with pytest.raises(ValueError):
        evolve_noisy(
            ham, "00", plan, NoiseModel(0.0, 0.0, 0.0), (PauliString.parse("Z3"),)
        )
    big = SpinHamiltonian(9, np.zeros((9, 3)), np.zeros((9, 9, 3, 3)))
    with pytest.raises(ResourceLimitError):
        evolve_noisy(
            big, "0" * 9, EvolutionPlan(2, 0.4, 1, (0.0,), None, 0),
            NoiseModel(0.0, 0.0, 0.0), (PauliString.parse("Z1"),),
        )


def test_evolve_exact_matches_rk4(rng):
    ham = random_hamiltonian(rng, 2)
    times = [0.0, 0.35, 0.8]
    observables = [PauliString.parse("Z1"), PauliString.parse("X1 Y2")]
    ours = evolve_exact(ham, "01", times, observables)
    psi0 = np.zeros(4, dtype=complex)
    psi0[1] = 1.0
    expected = rk4_expectations(
        dense_hamiltonian(2, ham.h, ham.V),
        psi0,
        times,
        [dense_pauli(o, 2) for o in observables],
    )
    np.testing.assert_allclose(ours, expected, atol=1e-8)


def test_evolve_exact_qubit_cap():
    big = SpinHamiltonian(11, np.zeros((11, 3)), np.zeros((11, 11, 3, 3)))
    with pytest.raises(ResourceLimitError):
        evolve_exact(big, "0" * 11, [0.0], [PauliString.parse("Z1")])


def test_measurement_set_validation(rng):
    good = random_measurements(rng)
    with pytest.raises(ValueError):
        MeasurementSet(good.correlators, good.values[:, :, :2], good.eps, good.initial, good.shots)
    bad_values = good.values.copy()
    bad_values[0, 0, 0] = 1.5
    with pytest.raises(ValueError):
        MeasurementSet(good.correlators, bad_values, good.eps, good.initial, good.shots)
    bad_eps = good.eps.copy()
    bad_eps[0, 0] = 0.2
    with pytest.raises(ValueError):
        MeasurementSet(good.correlators, good.values, bad_eps, good.initial, good.shots)


def test_measurement_set_round_trip(rng):
    ms = random_measurements(rng)
    again = MeasurementSet.from_dict(ms.to_dict())
    assert again.correlators == ms.correlators
    assert again.shots == ms.shots
    np.testing.assert_array_equal(again.values, ms.values)
    np.testing.assert_array_equal(again.eps, ms.eps)
    np.testing.assert_array_equal(again.initial, ms.initial)
    header, rows = ms.csv_rows()
    assert header == ["correlator", "step", "level", "eps", "value"]
    assert len(rows) == ms.n_correlators * ms.n_steps * ms.n_levels
