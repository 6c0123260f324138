"""Lattice Schwinger model front end.

The staggered-fermion Schwinger Hamiltonian with the gauge field integrated
out maps, after dropping an additive constant, onto

    H = - (m/g) sqrt(x) sum_i (-1)^i sigma_i^3
        + sum_{i<N} (N/4 - ceil((i-1)/2)/2 + l0 (N - i)) sigma_i^3
        + (x/2) sum_{i<N} (sigma_i^1 sigma_{i+1}^1 + sigma_i^2 sigma_{i+1}^2)
        + (1/2) sum_{i<j} (N - j + penalty) sigma_i^3 sigma_j^3,

with x = (N / volume)^2 and a penalty term that projects onto the zero-charge
sector. The coefficient tables returned here absorb the 1/2 and 1/4
normalisation of :class:`~bbgky_zne.hierarchy.SpinHamiltonian`.

Two observables are tracked: the conserved total charge Q and the
(non-conserved) particle number P, both affine in single-site sigma^3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .hierarchy import HierarchySubset, SpinHamiltonian, select_subset
from .mitigation import (
    MitigationOutput,
    ProblemLayout,
    check_degree,
    check_solve_size,
    error_norm,
    observable_covariance,
    observable_series,
    run_mitigation,
)
from .pauli import ObservableCombination, PauliString
from .simulator import (
    EvolutionPlan,
    MeasurementSet,
    NoiseModel,
    evolve_exact,
    evolve_noisy,
    evolve_noisy_batch,
)


@dataclass(frozen=True)
class SchwingerParams:
    """Physical and regulator parameters of one simulation point."""

    n_qubits: int = 4
    mass_ratio: float = 0.0
    volume: float = 30.0
    l0: float = 0.0
    penalty: float = 100.0

    def __post_init__(self) -> None:
        if int(self.n_qubits) != self.n_qubits or self.n_qubits < 2 or self.n_qubits % 2:
            raise ValueError(
                f"n_qubits must be an even integer >= 2, got {self.n_qubits}"
            )
        object.__setattr__(self, "n_qubits", int(self.n_qubits))
        for name in ("mass_ratio", "volume", "l0", "penalty"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if not self.volume > 0.0:
            raise ValueError(f"volume must be positive, got {self.volume}")
        if self.penalty < 0.0:
            raise ValueError(f"penalty must be >= 0, got {self.penalty}")

    @property
    def x(self) -> float:
        return (self.n_qubits / self.volume) ** 2


def build_hamiltonian(params: SchwingerParams) -> SpinHamiltonian:
    n = params.n_qubits
    x = params.x
    h = np.zeros((n, 3))
    V = np.zeros((n, n, 3, 3))
    for i in range(1, n + 1):
        coeff = -params.mass_ratio * math.sqrt(x) * (-1.0) ** i
        if i <= n - 1:
            coeff += n / 4.0 - (i // 2) / 2.0 + params.l0 * (n - i)
        h[i - 1, 2] = 2.0 * coeff
    for i in range(1, n):
        V[i - 1, i, 0, 0] = 2.0 * x
        V[i - 1, i, 1, 1] = 2.0 * x
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            V[i - 1, j - 1, 2, 2] = 2.0 * (n - j + params.penalty)
    return SpinHamiltonian(n, h, V)


def charge_observable(n_qubits: int) -> ObservableCombination:
    """Total charge ``Q = 1/2 sum_i sigma_i^3`` (commutes with H)."""
    return ObservableCombination(
        0.0, tuple((0.5, PauliString.single(i, 3)) for i in range(1, n_qubits + 1))
    )


def particle_number_observable(n_qubits: int) -> ObservableCombination:
    """Particle number ``P = N/2 - 1/2 sum_i (-1)^i sigma_i^3``."""
    return ObservableCombination(
        n_qubits / 2.0,
        tuple(
            (-0.5 * (-1.0) ** i, PauliString.single(i, 3))
            for i in range(1, n_qubits + 1)
        ),
    )


def hierarchy_seeds(n_qubits: int) -> tuple[PauliString, ...]:
    """Seed strings of both tracked observables (the single-site sigma^3)."""
    return tuple(PauliString.single(i, 3) for i in range(1, n_qubits + 1))


def default_initial_state(n_qubits: int) -> str:
    return "01" * (n_qubits // 2)


@dataclass(frozen=True)
class ObservableReport:
    """Mitigated series and error norms of one observable at one cell."""

    name: str
    reference: np.ndarray
    series_zne: np.ndarray
    series_bbgky: np.ndarray
    std_zne: np.ndarray
    std_bbgky: np.ndarray
    L_zne: float
    dL_zne: float
    L_bbgky: float
    dL_bbgky: float


@dataclass
class CellOutcome:
    """Everything produced for a single (l0, m/g) point."""

    params: SchwingerParams
    subset: object
    measurements: object
    zne: object
    bbgky: object
    reports: dict[str, ObservableReport]


def tracked_observables(n_qubits: int) -> dict[str, ObservableCombination]:
    """The observables every report covers: charge Q and particle number P."""
    return {
        "Q": charge_observable(n_qubits),
        "P": particle_number_observable(n_qubits),
    }


def report_observables(
    measurements: MeasurementSet,
    observables: dict[str, ObservableCombination],
    references: Sequence[np.ndarray],
    zne: MitigationOutput,
    bbgky: MitigationOutput,
    dt: float,
) -> dict[str, ObservableReport]:
    """Mitigated series, std and error norm of each observable under both
    methods; ``references`` holds the exact series in ``observables`` order."""
    combos = list(observables.values())
    covariances = {
        label: observable_covariance(
            combos, measurements.correlators, output.covariance, measurements.n_steps
        )
        for label, output in (("zne", zne), ("bbgky", bbgky))
    }
    reports: dict[str, ObservableReport] = {}
    for o, ((name, combo), reference) in enumerate(zip(observables.items(), references)):
        fields = {}
        for label, output in (("zne", zne), ("bbgky", bbgky)):
            series = observable_series(
                combo, measurements.correlators, measurements.initial,
                output.result.extrapolations,
            )
            cov = covariances[label][o]
            fields[f"series_{label}"] = series
            fields[f"std_{label}"] = np.sqrt(np.clip(np.diag(cov), 0.0, None))
            fields[f"L_{label}"], fields[f"dL_{label}"] = error_norm(
                series, reference, dt, cov
            )
        reports[name] = ObservableReport(name=name, reference=reference, **fields)
    return reports


def run_cell(
    params: SchwingerParams,
    plan: EvolutionPlan,
    noise: NoiseModel,
    radius: int,
    degree: int,
    g_weight: float = 1.0,
    initial_state: str | None = None,
) -> CellOutcome:
    """Simulate one parameter point and mitigate it with and without
    hierarchy constraints."""
    state = default_initial_state(params.n_qubits) if initial_state is None else initial_state
    ham, subset = _prepare_cell(params, plan, radius, degree)
    measurements = evolve_noisy(ham, state, plan, noise, subset.correlators)
    return _mitigate_cell(params, ham, state, plan, subset, measurements, degree, g_weight)


def _prepare_cell(
    params: SchwingerParams, plan: EvolutionPlan, radius: int, degree: int
) -> tuple[SpinHamiltonian, HierarchySubset]:
    """The cell's Hamiltonian and subset, once it is checked, before anything
    is simulated, that its fits can be afforded and that the fold levels
    support their degree."""
    ham = build_hamiltonian(params)
    subset = select_subset(ham, hierarchy_seeds(params.n_qubits), radius)
    n_levels = len(plan.fold_levels)
    check_solve_size(
        ProblemLayout(subset.n_correlators, plan.n_steps, n_levels, degree, subset.n_equations)
    )
    check_degree(degree, n_levels)
    return ham, subset


def _mitigate_cell(
    params: SchwingerParams,
    ham: SpinHamiltonian,
    state: str,
    plan: EvolutionPlan,
    subset: HierarchySubset,
    measurements: MeasurementSet,
    degree: int,
    g_weight: float,
) -> CellOutcome:
    """The exact reference, both fits and the observable reports of one
    simulated cell."""
    observables = tracked_observables(params.n_qubits)
    references = evolve_exact(ham, state, plan.times, list(observables.values()))
    bbgky = run_mitigation(measurements, subset, degree, plan.dt, g_weight)
    zne = run_mitigation(measurements, None, degree, plan.dt)
    reports = report_observables(measurements, observables, references, zne, bbgky, plan.dt)
    return CellOutcome(params, subset, measurements, zne, bbgky, reports)


@dataclass
class ScanGrid:
    """Observable reports, and the error-norm tables read from them, over an
    (l0, m/g) grid."""

    l0_values: tuple[float, ...]
    mass_values: tuple[float, ...]
    observables: tuple[str, ...]
    cells: dict[tuple[int, int], dict[str, ObservableReport]]

    def csv_rows(self) -> tuple[list[str], list[tuple]]:
        header = ["l0", "m_over_g", "observable", "L0", "dL0", "Lb", "dLb"]
        rows = []
        for i, l0 in enumerate(self.l0_values):
            for j, mass in enumerate(self.mass_values):
                for name in self.observables:
                    cell = self.cells[(i, j)][name]
                    rows.append(
                        (l0, mass, name, cell.L_zne, cell.dL_zne, cell.L_bbgky, cell.dL_bbgky)
                    )
        return header, rows

    def summary(self) -> dict:
        """Heat-map tables plus grid-mean improvements per observable."""
        out: dict = {
            "l0_values": list(self.l0_values),
            "mass_values": list(self.mass_values),
            "observables": {},
        }
        n_cells = len(self.l0_values) * len(self.mass_values)
        for name in self.observables:
            table_zne = [
                [self.cells[(i, j)][name].L_zne for j in range(len(self.mass_values))]
                for i in range(len(self.l0_values))
            ]
            table_delta = [
                [
                    self.cells[(i, j)][name].L_bbgky - self.cells[(i, j)][name].L_zne
                    for j in range(len(self.mass_values))
                ]
                for i in range(len(self.l0_values))
            ]
            flat = [self.cells[key][name] for key in sorted(self.cells)]
            mean_zne = sum(c.L_zne for c in flat) / n_cells
            mean_bbgky = sum(c.L_bbgky for c in flat) / n_cells
            d_mean_zne = math.sqrt(sum(c.dL_zne**2 for c in flat)) / n_cells
            d_mean_bbgky = math.sqrt(sum(c.dL_bbgky**2 for c in flat)) / n_cells
            improvement = 1.0 - mean_bbgky / mean_zne if mean_zne else 0.0
            d_improvement = (
                math.hypot(d_mean_bbgky / mean_zne, mean_bbgky * d_mean_zne / mean_zne**2)
                if mean_zne
                else 0.0
            )
            out["observables"][name] = {
                "table_L0": table_zne,
                "table_Lb_minus_L0": table_delta,
                "mean_L0": mean_zne,
                "d_mean_L0": d_mean_zne,
                "mean_Lb": mean_bbgky,
                "d_mean_Lb": d_mean_bbgky,
                "mean_improvement": improvement,
                "d_mean_improvement": d_improvement,
            }
        return out


def cell_seed(base_seed: int, i: int, j: int) -> int:
    """Per-cell RNG seed derived deterministically from the master seed."""
    state = np.random.SeedSequence([int(base_seed), int(i), int(j)]).generate_state(2)
    return int(state.view(np.uint64)[0])


def run_scan(
    l0_values: Sequence[float],
    mass_values: Sequence[float],
    base_params: SchwingerParams,
    plan: EvolutionPlan,
    noise: NoiseModel,
    radius: int,
    degree: int,
    seed: int,
    g_weight: float = 1.0,
    initial_state: str | None = None,
) -> ScanGrid:
    """Run every (l0, m/g) cell with an independent derived seed.

    Every cell is built and checked before any is simulated. Cells whose
    Hamiltonians have the same term strings (m/g = 0 drops the mass term)
    and the same correlators are simulated together by
    :func:`~bbgky_zne.simulator.evolve_noisy_batch`; then each cell is
    mitigated as :func:`run_cell` mitigates it, so a cell's reports are the
    same bytes either way.
    """
    l0_values = tuple(float(v) for v in l0_values)
    mass_values = tuple(float(v) for v in mass_values)
    if not l0_values or not mass_values:
        raise ValueError("scan grid must be non-empty")
    n = base_params.n_qubits
    state = default_initial_state(n) if initial_state is None else initial_state
    # (i, j) -> (params, plan, Hamiltonian, subset)
    cells = {}
    for i, l0 in enumerate(l0_values):
        for j, mass in enumerate(mass_values):
            params = replace(base_params, l0=l0, mass_ratio=mass)
            cell_plan = replace(plan, rng_seed=cell_seed(seed, i, j))
            cells[(i, j)] = (params, cell_plan) + _prepare_cell(params, cell_plan, radius, degree)
    groups: dict[tuple, list[tuple[int, int]]] = {}
    for key, (_, _, ham, subset) in cells.items():
        strings = tuple(string for string, _ in ham.terms)
        groups.setdefault((strings, subset.correlators), []).append(key)
    measurements = {}
    for (_, correlators), keys in groups.items():
        hams = [cells[key][2] for key in keys]
        plans = [cells[key][1] for key in keys]
        measurements.update(
            zip(keys, evolve_noisy_batch(hams, state, plans, noise, correlators))
        )
    reports = {
        key: _mitigate_cell(
            params, ham, state, cell_plan, subset, measurements[key], degree, g_weight
        ).reports
        for key, (params, cell_plan, ham, subset) in cells.items()
    }
    return ScanGrid(l0_values, mass_values, tuple(tracked_observables(n)), reports)
