import math
import tracemalloc
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from bbgky_zne import simulator
from bbgky_zne.errors import ResourceLimitError
from bbgky_zne.hierarchy import SpinHamiltonian, select_subset
from bbgky_zne.pauli import ObservableCombination, PauliString
from bbgky_zne.schwinger import (
    SchwingerParams,
    build_hamiltonian,
    hierarchy_seeds,
    tracked_observables,
)
from bbgky_zne.simulator import (
    EvolutionPlan,
    MeasurementSet,
    NoiseModel,
    TrotterFactor,
    damping_tensor,
    depolarize,
    error_level,
    evolve_exact,
    evolve_noisy,
    evolve_noisy_batch,
    factor_rotation,
    fold_schedule,
    sample_estimate,
    shifted_error_level,
    trotter_factors,
)
from conftest import random_hamiltonian, random_measurements, random_string
from oracles import (
    apply_local_transfer,
    axes_of,
    dense_exact_reference,
    dense_hamiltonian,
    dense_pauli,
    depolarize_reference,
    factor_unitary,
    heisenberg_transfer,
    noisy_campaign_reference,
    pauli_vector,
    rk4_expectations,
)


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


@pytest.mark.parametrize("n_qubits", [2, 3, 4])
@pytest.mark.parametrize("order", [1, 2])
def test_factor_rotation_matches_dense_heisenberg_action(rng, n_qubits, order):
    factors = trotter_factors(random_hamiltonian(rng, n_qubits), 0.37, order)
    assert {len(f.string) for f in factors} == {1, 2}
    for factor in factors:
        r = rng.normal(size=(4,) * n_qubits)
        cos, sin, flip = factor_rotation(factor.string, [factor.angle], n_qubits)
        bits = r.reshape((2,) * (2 * n_qubits))
        ours = (cos * bits + sin * bits[flip]).reshape(r.shape)
        expected = apply_local_transfer(r, heisenberg_transfer(factor), factor.string.sites)
        np.testing.assert_allclose(ours, expected, rtol=0, atol=1e-14)


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
        r = pauli_vector(rho, n)
        for p in (0.0, 0.3, 1.0):
            expected = pauli_vector(depolarize_reference(rho, sites, p, n), n)
            # the channel works in place and returns its argument, so every
            # call gets its own copy of r
            state = r.copy()
            assert depolarize(state, damping_tensor(sites, p, n)) is state
            np.testing.assert_allclose(state, expected, rtol=0, atol=1e-13)
            # scaling the whole state and restoring the spared strings gives
            # the same floats
            spared = r.copy()
            kept = spared[tuple(0 if k in sites else slice(None) for k in range(1, n + 1))]
            assert depolarize(spared, 1.0 - p, kept, np.empty_like(kept)) is spared
            np.testing.assert_array_equal(spared, state)
        state = r.copy()
        assert depolarize(state, damping_tensor(sites, 0.7, n))[0, 0, 0] == pytest.approx(1.0)


def test_damping_tensor_damps_the_strings_on_its_sites():
    tensor = damping_tensor([2, 3], 0.25, 3)
    assert tensor.shape == (4, 4, 4)
    for index in np.ndindex(tensor.shape):
        assert tensor[index] == (0.75 if index[1] or index[2] else 1.0)


@pytest.mark.parametrize("sites", [[9], [0], [2, 5], [-1]])
def test_damping_tensor_rejects_sites_outside_the_register(sites):
    with pytest.raises(ValueError, match="outside 1..4"):
        damping_tensor(sites, 0.1, 4)


def test_depolarize_full_strength_mixes_marginal(rng):
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = raw @ raw.conj().T
    rho /= np.trace(rho).real
    out = depolarize(pauli_vector(rho, 2), damping_tensor([1], 1.0, 2))
    assert abs(out[3, 0]) < 1e-12  # Z1
    assert abs(out[1, 0]) < 1e-12  # X1


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


@pytest.mark.parametrize(
    "field,value",
    [("n_steps", 2.5), ("shots", 2.7), ("rng_seed", 2.9), ("rng_seed", -1)],
)
def test_plan_rejects_non_integral_counts(field, value):
    kwargs = {"n_steps": 2, "total_time": 1.0, "shots": 2, "rng_seed": 2, field: value}
    with pytest.raises(ValueError, match=field):
        EvolutionPlan(**kwargs)


@pytest.mark.parametrize("shots", [0, 2.7])
def test_sampling_helpers_reject_non_integral_shots(shots):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="shots"):
        sample_estimate(0.0, shots, rng)
    with pytest.raises(ValueError, match="shots"):
        shifted_error_level(2, 1.0, shots, rng)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(-0.1, 0.0, 0.0)
    with pytest.raises(ValueError):
        NoiseModel(0.0, 1.1, 0.0)
    assert NoiseModel(0.0, 0.0, 0.0) == NoiseModel()


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


@pytest.mark.parametrize("n_qubits", [2, 3, 4])
@pytest.mark.parametrize("order", [1, 2])
def test_evolve_noisy_matches_dense_density_matrix(rng, n_qubits, order):
    """Random Hamiltonians at n = 2 and 3; at n = 4 the Schwinger chain at
    the benchmark's noise."""
    if n_qubits == 4:
        ham = build_hamiltonian(SchwingerParams(n_qubits=4, l0=0.4, mass_ratio=0.3))
        noise = NoiseModel(0.001, 0.01, 0.02)
    else:
        ham = random_hamiltonian(rng, n_qubits)
        noise = NoiseModel(0.01, 0.03, 0.02)
    correlators = (
        PauliString.parse("Z1"),
        PauliString.parse("X1 Y2"),
        PauliString.parse("Z1 Z2"),
        PauliString.single(n_qubits, 1),
    )
    bits = tuple(int(b) for b in rng.integers(0, 2, size=n_qubits))
    label = "".join(map(str, bits))
    for shots in (None, 256):
        # fold levels 0.5 and 1.0 insert identity pairs after steps 2 and 1..3
        plan = EvolutionPlan(3, 0.6, order, (0.0, 0.5, 1.0), shots, 5)
        ours = evolve_noisy(ham, label, plan, noise, correlators)
        factors = [
            (axes_of(f.string.factors, n_qubits), f.angle)
            for f in trotter_factors(ham, plan.dt, order)
        ]
        values, eps, initial = noisy_campaign_reference(
            n_qubits, factors, bits, plan, noise,
            [axes_of(c.factors, n_qubits) for c in correlators],
        )
        if shots is None:
            np.testing.assert_allclose(ours.values, values, rtol=0, atol=1e-12)
        else:
            np.testing.assert_array_equal(ours.values, values)
        np.testing.assert_array_equal(ours.eps, eps)
        np.testing.assert_array_equal(ours.initial, initial)


@pytest.mark.parametrize("shots", [None, 256])
def test_scaled_and_restored_channels_match_damping_tensors(monkeypatch, rng, shots):
    """Past ``DAMPING_TENSOR_BYTES`` the channels scale the whole state and
    restore the strings they spare; the floats are the same."""
    ham = random_hamiltonian(rng, 4)
    plan = EvolutionPlan(4, 0.8, 2, (0.0, 1.0, 1.5), shots, 3)
    noise = NoiseModel(0.02, 0.05, 0.01)
    correlators = tuple(PauliString.parse(t) for t in ("Z1", "X1 Y2", "Y3 Z4", "X4"))
    tensors = evolve_noisy(ham, "0110", plan, noise, correlators)
    monkeypatch.setattr(simulator, "DAMPING_TENSOR_BYTES", 0)
    restored = evolve_noisy(ham, "0110", plan, noise, correlators)
    np.testing.assert_array_equal(restored.values, tensors.values)
    np.testing.assert_array_equal(restored.eps, tensors.eps)


@pytest.mark.parametrize("tensor_bytes", [simulator.DAMPING_TENSOR_BYTES, 0])
@pytest.mark.parametrize("shots", [None, 256])
@pytest.mark.parametrize("order", [1, 2])
def test_fold_level_groups_give_identical_outputs(monkeypatch, rng, order, shots, tensor_bytes):
    """One level at a time, two at a time (the third level alone in a short
    last group) and all three at once give the same bytes, with damping
    tensors and with scaled-and-restored channels. Levels 0.5 and 1.5 insert
    their identity pairs after different steps."""
    n = 3
    ham = random_hamiltonian(rng, n)
    plan = EvolutionPlan(6, 1.2, order, (0.0, 0.5, 1.5), shots, 9)
    noise = NoiseModel(0.02, 0.05, 0.01)
    correlators = tuple(PauliString.parse(t) for t in ("Z1", "X1 Y2", "Y2 Z3", "X3"))
    monkeypatch.setattr(simulator, "DAMPING_TENSOR_BYTES", tensor_bytes)
    runs = []
    for group in (1, 2, 3):
        monkeypatch.setattr(simulator, "LEVEL_GROUP_BYTES", group * 2 * 8 * 4**n)
        runs.append(evolve_noisy(ham, "011", plan, noise, correlators))
    for other in runs[1:]:
        assert other.values.tobytes() == runs[0].values.tobytes()
        assert other.eps.tobytes() == runs[0].eps.tobytes()
        assert other.initial.tobytes() == runs[0].initial.tobytes()


@pytest.mark.parametrize("tensor_bytes", [simulator.DAMPING_TENSOR_BYTES, 0])
@pytest.mark.parametrize("shots", [None, 256])
@pytest.mark.parametrize("order", [1, 2])
def test_batches_of_cells_give_the_bytes_of_one_cell_at_a_time(
    monkeypatch, rng, order, shots, tensor_bytes
):
    """Five cells with the same strings but different angles and seeds, in
    batches of 1, 2 and 3 cells (the last batch short), give the bytes of
    five single-cell calls, with damping tensors and with scaled-and-restored
    channels: a batch accepts equal strings with different angles."""
    n = 3
    hams = [random_hamiltonian(rng, n) for _ in range(5)]
    assert len({tuple(s for s, _ in ham.terms) for ham in hams}) == 1
    plans = [EvolutionPlan(6, 1.2, order, (0.0, 0.5, 1.5), shots, seed) for seed in range(5)]
    noise = NoiseModel(0.02, 0.05, 0.01)
    correlators = tuple(PauliString.parse(t) for t in ("Z1", "X1 Y2", "Y2 Z3", "X3"))
    monkeypatch.setattr(simulator, "DAMPING_TENSOR_BYTES", tensor_bytes)
    alone = [evolve_noisy(ham, "011", plan, noise, correlators) for ham, plan in zip(hams, plans)]
    for cells in (1, 2, 3):
        monkeypatch.setattr(simulator, "LEVEL_GROUP_BYTES", cells * 3 * 2 * 8 * 4**n)
        batched = evolve_noisy_batch(hams, "011", plans, noise, correlators)
        assert len(batched) == len(alone)
        for ours, theirs in zip(batched, alone):
            assert ours.values.tobytes() == theirs.values.tobytes()
            assert ours.eps.tobytes() == theirs.eps.tobytes()
            assert ours.initial.tobytes() == theirs.initial.tobytes()


@pytest.mark.parametrize(
    "second, plan_change, match",
    [
        (SchwingerParams(6, 0.1), {}, "register size"),
        (SchwingerParams(4, 0.0), {}, "term strings"),
        (SchwingerParams(4, 0.3), {"shots": 512}, "rng_seed only"),
        (SchwingerParams(4, 0.3), {"fold_levels": (0.0, 2.0)}, "rng_seed only"),
        (SchwingerParams(4, 0.3), {"trotter_order": 2}, "rng_seed only"),
        (SchwingerParams(4, 0.3), {"total_time": 0.7}, "rng_seed only"),
    ],
)
def test_a_mixed_batch_is_refused(second, plan_change, match):
    """Different register sizes, different term strings (m/g = 0 drops the
    mass term) and plans that differ in more than their seed."""
    plan = EvolutionPlan(3, 0.6, 1, (0.0, 1.0), 256, 0)
    hams = [build_hamiltonian(SchwingerParams(4, 0.1)), build_hamiltonian(second)]
    plans = [plan, replace(plan, rng_seed=1, **plan_change)]
    with pytest.raises(ValueError, match=match):
        evolve_noisy_batch(hams, "0101", plans, NoiseModel(), (PauliString.parse("Z1"),))


def test_a_batch_needs_one_plan_per_hamiltonian():
    ham = build_hamiltonian(SchwingerParams(4, 0.1))
    plan = EvolutionPlan(3, 0.6, 1, (0.0, 1.0), 256, 0)
    correlators = (PauliString.parse("Z1"),)
    for hams, plans in (([], []), ([ham, ham], [plan])):
        with pytest.raises(ValueError, match="one plan per Hamiltonian"):
            evolve_noisy_batch(hams, "0101", plans, NoiseModel(), correlators)


def test_level_zero_does_not_depend_on_the_other_levels(rng):
    """All four levels advance in one group here; the first column equals
    the run of level 0 alone."""
    ham = random_hamiltonian(rng, 3)
    noise = NoiseModel(0.02, 0.05, 0.01)
    correlators = tuple(PauliString.parse(t) for t in ("Z1", "X1 Y2", "Z2 Z3"))
    plan = EvolutionPlan(5, 1.0, 1, (0.0, 0.5, 1.0, 2.0), 512, 4)
    assert 4 * 2 * 8 * 4**3 <= simulator.LEVEL_GROUP_BYTES
    four = evolve_noisy(ham, "010", plan, noise, correlators)
    one = evolve_noisy(ham, "010", replace(plan, fold_levels=(0.0,)), noise, correlators)
    assert four.values[:, :, :1].tobytes() == one.values.tobytes()
    assert four.eps[:, :1].tobytes() == one.eps.tobytes()
    assert four.initial.tobytes() == one.initial.tobytes()


def test_evolve_noisy_memory_stays_within_its_budget():
    """At n = 6, r = 1 the call advances two fold levels at a time: it holds
    their two states, their partner buffers, one damping tensor per noisy
    support and the values, and numpy's iteration buffers take up to four
    more states during a rotation. Its traced peak stays below
    (supports + 12) states plus the values."""
    n = 6
    ham = build_hamiltonian(SchwingerParams(n_qubits=n, l0=0.4, mass_ratio=0.3))
    correlators = select_subset(ham, hierarchy_seeds(n), 1).correlators
    plan = EvolutionPlan(20, 4.0, 1, (0.0, 1.0, 1.5, 2.0), 10240, 1)
    supports = {f.string.sites for f in trotter_factors(ham, plan.dt, 1)}
    assert len(supports) == 21

    def run():
        return evolve_noisy(ham, "01" * (n // 2), plan, NoiseModel(0.001, 0.01, 0.02), correlators)

    run()  # the first call in a process also traces the imports it triggers
    tracemalloc.start()
    try:
        result = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (len(supports) + 12) * 8 * 4**n + result.values.nbytes


def test_initial_values_of_z_strings(rng):
    strings = ("Z1", "Z2", "Z1 Z2", "Z2 Z4", "X1", "Y2 Z3", "X1 Z2")
    initial = evolve_noisy(
        random_hamiltonian(rng, 4), "0101", EvolutionPlan(1, 0.1, 1, (0.0,), None, 0),
        NoiseModel(0.0, 0.0, 0.0), tuple(PauliString.parse(t) for t in strings),
    ).initial
    assert initial.tolist() == [1.0, -1.0, -1.0, 1.0, 0.0, 0.0, 0.0]
    # X1 Z2 on |0101> is 0 * -1, which must not be written as -0.0
    assert not np.signbit(initial[4:]).any()


def test_initial_values_match_dense(rng):
    n = 3
    ham = random_hamiltonian(rng, n)
    plan = EvolutionPlan(1, 0.1, 1, (0.0,), None, 0)
    for _ in range(10):
        axes = tuple(int(a) for a in rng.integers(0, 4, size=n))
        if not any(axes):
            continue
        s = PauliString(tuple((k + 1, a) for k, a in enumerate(axes) if a))
        bits = tuple(int(b) for b in rng.integers(0, 2, size=n))
        index = int("".join(map(str, bits)), 2)
        dense = dense_pauli(s, n)
        initial = evolve_noisy(
            ham, "".join(map(str, bits)), plan, NoiseModel(0.0, 0.0, 0.0), (s,)
        ).initial
        assert initial[0] == pytest.approx(float(dense[index, index].real), abs=1e-14)


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


@pytest.mark.parametrize("n_qubits", [2, 4, 6, 8])
def test_evolve_exact_matches_dense_reference_on_schwinger_chains(n_qubits):
    ham = build_hamiltonian(SchwingerParams(n_qubits, 0.4, 30.0, 0.7, 100.0))
    subset = select_subset(ham, hierarchy_seeds(n_qubits), 1)
    observables = list(tracked_observables(n_qubits).values()) + list(subset.correlators)
    assert any(c.factors[0][1] in (1, 2) for c in subset.correlators)
    times = np.linspace(0.0, 4.0, 21)
    label = "01" * (n_qubits // 2)
    np.testing.assert_allclose(
        evolve_exact(ham, label, times, observables),
        dense_exact_reference(ham, label, times, observables),
        rtol=0,
        atol=1e-12,
    )


@pytest.mark.parametrize("n_qubits", [3, 4, 5])
def test_evolve_exact_matches_dense_reference_on_random_hamiltonians(rng, n_qubits):
    times = [0.0, 0.3, 1.1, 2.5]
    for _ in range(4):
        ham = random_hamiltonian(rng, n_qubits)
        label = "".join(str(b) for b in rng.integers(0, 2, size=n_qubits))
        strings = [random_string(rng, n_qubits) for _ in range(6)]
        strings += [PauliString.parse("X1"), PauliString.parse("Y1 Y2")]
        combination = ObservableCombination(0.5, ((0.3, strings[0]), (-1.2, strings[1])))
        observables = strings + [combination]
        np.testing.assert_allclose(
            evolve_exact(ham, label, times, observables),
            dense_exact_reference(ham, label, times, observables),
            rtol=0,
            atol=1e-12,
        )


@pytest.mark.parametrize("n_qubits,states", [(4, 6), (6, 20), (8, 70)])
def test_evolve_exact_grows_the_charge_sector(monkeypatch, n_qubits, states):
    """XX and YY on a pair cancel between |00> and |11>: a sector grown
    without summing them first would hold 2^(n-1) states, not C(n, n/2)."""
    ham = build_hamiltonian(SchwingerParams(n_qubits, 0.4, 30.0, 0.7, 100.0))
    label, observable = "01" * (n_qubits // 2), [PauliString.parse("Z1")]
    monkeypatch.setattr(simulator, "EXACT_MAX_STATES", states)
    evolve_exact(ham, label, [1.0], observable)
    monkeypatch.setattr(simulator, "EXACT_MAX_STATES", states - 1)
    with pytest.raises(ResourceLimitError):
        evolve_exact(ham, label, [1.0], observable)


def test_evolve_exact_refuses_a_sector_past_its_cap():
    """An X field on every site reaches all 2^11 basis states: refused while
    the sector grows, before a 2 048^2 (64 MiB) matrix is built."""
    fields = np.zeros((11, 3))
    fields[:, 0] = 1.0
    ham = SpinHamiltonian(11, fields, np.zeros((11, 11, 3, 3)))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="1024 basis states"):
            evolve_exact(ham, "0" * 11, [0.0, 1.0], [PauliString.parse("Z1")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


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
