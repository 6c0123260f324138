import numpy as np
import pytest

from bbgky_zne.hierarchy import SpinHamiltonian
from bbgky_zne.mitigation import bernstein_deriv_weight
from bbgky_zne.pauli import PauliString
from bbgky_zne.simulator import MeasurementSet


def random_hamiltonian(rng: np.random.Generator, n_qubits: int) -> SpinHamiltonian:
    """Normal random fields and couplings on every site pair."""
    h = rng.normal(size=(n_qubits, 3))
    V = np.zeros((n_qubits, n_qubits, 3, 3))
    upper = np.triu_indices(n_qubits, k=1)
    V[upper] = rng.normal(size=(len(upper[0]), 3, 3))
    return SpinHamiltonian(n_qubits, h, V)


def random_string(rng: np.random.Generator, n_qubits: int) -> PauliString:
    """Uniformly random non-identity Pauli string."""
    while True:
        axes = rng.integers(0, 4, size=n_qubits)
        if axes.any():
            return PauliString(tuple((i + 1, int(a)) for i, a in enumerate(axes) if a))


def random_measurements(
    rng: np.random.Generator,
    n_correlators: int = 3,
    n_steps: int = 4,
    n_levels: int = 4,
    shots: int | None = 4096,
) -> MeasurementSet:
    strings = [PauliString.single(q + 1, 3) for q in range(n_correlators)]
    # spread the levels so any fit degree < n_levels stays well posed
    eps = np.sort(1.0 + 2.0 * rng.random((n_steps, n_levels)), axis=1)
    eps[:, 1:] += 0.05 * np.arange(1, n_levels)
    values = rng.uniform(-1.0, 1.0, size=(n_correlators, n_steps, n_levels))
    initial = rng.uniform(-1.0, 1.0, size=n_correlators)
    return MeasurementSet(tuple(strings), values, eps, initial, shots)


def sampled_derivative(samples, x: float, dt: float) -> float:
    """Derivative of the Bernstein fit through uniform samples, at x."""
    degree = len(samples) - 1
    return sum(
        bernstein_deriv_weight(s, degree, x, dt) * samples[s] for s in range(degree + 1)
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260825)
