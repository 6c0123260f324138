import numpy as np
import pytest

from bbgky_zne.mitigation import bernstein_deriv_weight
from bbgky_zne.pauli import PauliString
from bbgky_zne.simulator import MeasurementSet
from bbgky_zne.verify import random_hamiltonian, random_string  # noqa: F401


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
