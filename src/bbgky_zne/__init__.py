"""Constraint-aided zero-noise extrapolation for Trotterized spin systems.

The package derives equations of motion for Pauli-string expectation values
of a spin-1/2 Hamiltonian, simulates noisy Trotterized evolution at several
noise-amplification levels, and recovers zero-noise estimates from a single
least-squares problem that couples the per-observable extrapolations through
the equations of motion.
"""

from .errors import ConfigError, IllPosedFitError, ResourceLimitError
from .hierarchy import (
    BbgkyEquation,
    HierarchySubset,
    SpinHamiltonian,
    decompose,
    derive_equation,
    downstream,
    select_subset,
)
from .mitigation import (
    MitigationOutput,
    MitigationProblem,
    MitigationResult,
    ProblemLayout,
    assemble,
    bernstein_deriv_weight,
    bernstein_value,
    error_norm,
    extrapolation_covariance,
    measurement_variances,
    observable_covariance,
    observable_series,
    run_mitigation,
    solve,
    zne_baseline,
)
from .pauli import ObservableCombination, PauliString, all_strings
from .schwinger import (
    CellOutcome,
    ScanGrid,
    SchwingerParams,
    build_hamiltonian,
    charge_observable,
    default_initial_state,
    hierarchy_seeds,
    particle_number_observable,
    report_observables,
    run_cell,
    run_scan,
    tracked_observables,
)
from .simulator import (
    EvolutionPlan,
    MeasurementSet,
    NoiseModel,
    TrotterFactor,
    error_level,
    evolve_exact,
    evolve_noisy,
    evolve_noisy_batch,
    fold_schedule,
    shifted_error_level,
    trotter_factors,
)

__all__ = [
    "BbgkyEquation",
    "CellOutcome",
    "ConfigError",
    "EvolutionPlan",
    "HierarchySubset",
    "IllPosedFitError",
    "MeasurementSet",
    "MitigationOutput",
    "MitigationProblem",
    "MitigationResult",
    "NoiseModel",
    "ObservableCombination",
    "PauliString",
    "ProblemLayout",
    "ResourceLimitError",
    "ScanGrid",
    "SchwingerParams",
    "SpinHamiltonian",
    "TrotterFactor",
    "all_strings",
    "assemble",
    "bernstein_deriv_weight",
    "bernstein_value",
    "build_hamiltonian",
    "charge_observable",
    "decompose",
    "default_initial_state",
    "derive_equation",
    "downstream",
    "error_level",
    "error_norm",
    "evolve_exact",
    "evolve_noisy",
    "evolve_noisy_batch",
    "extrapolation_covariance",
    "fold_schedule",
    "hierarchy_seeds",
    "measurement_variances",
    "observable_covariance",
    "observable_series",
    "particle_number_observable",
    "report_observables",
    "run_cell",
    "run_mitigation",
    "run_scan",
    "select_subset",
    "shifted_error_level",
    "solve",
    "tracked_observables",
    "trotter_factors",
    "zne_baseline",
]

__version__ = "0.1.0"
