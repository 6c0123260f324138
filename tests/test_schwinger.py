from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from bbgky_zne.errors import IllPosedFitError
from bbgky_zne.mitigation import run_mitigation
from bbgky_zne.pauli import PauliString, dense_pauli
from bbgky_zne.schwinger import (
    SchwingerParams,
    build_hamiltonian,
    cell_seed,
    charge_observable,
    default_initial_state,
    hierarchy_seeds,
    particle_number_observable,
    run_cell,
    run_scan,
)
from bbgky_zne.simulator import (
    EvolutionPlan,
    NoiseModel,
    evolve_exact,
    factor_unitary,
    trotter_factors,
)

FAST_PLAN = EvolutionPlan(6, 1.2, 1, (0.0, 1.0, 2.0), 2048, 3)
MILD_NOISE = NoiseModel(0.001, 0.01, 0.02)


def test_params_validation():
    with pytest.raises(ValueError):
        SchwingerParams(3)
    with pytest.raises(ValueError):
        SchwingerParams(0)
    with pytest.raises(ValueError):
        SchwingerParams(4, volume=0.0)
    for field in ("mass_ratio", "volume", "l0", "penalty"):
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match=field):
                SchwingerParams(4, **{field: bad})
    assert SchwingerParams(4, volume=30.0).x == pytest.approx((4 / 30) ** 2)


def test_hamiltonian_frozen_coefficients():
    ham = build_hamiltonian(SchwingerParams(4, 0.5, 30.0, 0.25, 100.0))
    fields = [ham.field(i, 3) for i in range(1, 5)]
    np.testing.assert_allclose(
        fields,
        [3.6333333333333333, 1.8666666666666667, 1.6333333333333333, -0.13333333333333333],
        atol=1e-14,
    )
    # no transverse fields
    assert all(ham.field(i, mu) == 0.0 for i in range(1, 5) for mu in (1, 2))
    # hopping on nearest neighbours only, equal XX and YY weights of 2x
    for i in (1, 2, 3):
        assert ham.coupling(i, i + 1, 1, 1) == pytest.approx(0.035555555555555556)
        assert ham.coupling(i, i + 1, 2, 2) == pytest.approx(0.035555555555555556)
    assert ham.coupling(1, 3, 1, 1) == 0.0
    expected_zz = {(1, 2): 204.0, (1, 3): 202.0, (1, 4): 200.0,
                   (2, 3): 202.0, (2, 4): 200.0, (3, 4): 200.0}
    for (i, j), value in expected_zz.items():
        assert ham.coupling(i, j, 3, 3) == pytest.approx(value)
    # no mixed-axis couplings
    assert ham.coupling(1, 2, 1, 2) == 0.0
    assert ham.coupling(1, 2, 3, 1) == 0.0


def test_observables_and_seeds():
    assert default_initial_state(4) == "0101"
    assert default_initial_state(6) == "010101"
    assert [s.token() for s in hierarchy_seeds(4)] == ["Z1", "Z2", "Z3", "Z4"]
    Q = charge_observable(4)
    P = particle_number_observable(4)
    values = {PauliString.single(i, 3): v for i, v in zip(range(1, 5), (1, -1, 1, -1))}
    assert Q.evaluate(values) == pytest.approx(0.0)
    assert P.evaluate(values) == pytest.approx(4.0)
    filled = {PauliString.single(i, 3): v for i, v in zip(range(1, 5), (-1, 1, -1, 1))}
    assert P.evaluate(filled) == pytest.approx(0.0)


def test_exact_evolution_conserves_charge():
    ham = build_hamiltonian(SchwingerParams(4, 0.5, 30.0, 0.5, 100.0))
    series = evolve_exact(ham, "0101", [0.0, 0.7, 1.9, 4.0], [charge_observable(4)])
    np.testing.assert_allclose(series[0], 0.0, atol=1e-12)


def test_trotter_step_product_conserves_charge():
    # individual hopping factors do not commute with the total charge, but
    # the ordered product over a full step does
    ham = build_hamiltonian(SchwingerParams(4, 0.5, 30.0, 0.5, 100.0))
    factors = trotter_factors(ham, 0.2, 1)
    unitaries = [factor_unitary(f, 4) for f in factors]
    step = reduce(lambda acc, u: u @ acc, unitaries, np.eye(16, dtype=complex))
    charge = charge_observable(4).dense(4)
    assert np.linalg.norm(step @ charge - charge @ step) < 1e-12
    xx = next(u for f, u in zip(factors, unitaries) if f.string.token() == "X1 X2")
    assert np.linalg.norm(xx @ charge - charge @ xx) > 1e-3


def test_run_cell_outputs():
    outcome = run_cell(SchwingerParams(4, 0.0, 30.0, 0.0, 100.0), FAST_PLAN, MILD_NOISE, 0, 2)
    assert set(outcome.reports) == {"Q", "P"}
    assert outcome.subset.n_correlators == 10
    assert outcome.subset.n_equations == 4
    for report in outcome.reports.values():
        assert report.series_zne.shape == (7,)
        assert report.series_bbgky.shape == (7,)
        assert report.reference.shape == (7,)
        assert np.isfinite(report.L_zne) and report.L_zne >= 0.0
        assert np.isfinite(report.dL_bbgky) and report.dL_bbgky >= 0.0
        # both mitigations agree with the exact value at t=0
        assert report.series_zne[0] == pytest.approx(report.reference[0], abs=1e-12)
        assert report.series_bbgky[0] == pytest.approx(report.reference[0], abs=1e-12)


def test_run_cell_leaves_the_dense_problem_unbuilt():
    outcome = run_cell(SchwingerParams(2), FAST_PLAN, MILD_NOISE, 0, 2)
    again = run_mitigation(outcome.measurements, outcome.subset, 2, FAST_PLAN.dt)
    for output in (outcome.zne, outcome.bbgky, again):
        assert "matrix" not in output.problem.__dict__
        assert "target" not in output.problem.__dict__
    # built on first use, then kept
    assert again.problem.matrix is again.problem.matrix


def test_run_cell_is_deterministic():
    params = SchwingerParams(4, 0.5, 30.0, 0.5, 100.0)
    a = run_cell(params, FAST_PLAN, MILD_NOISE, 0, 2)
    b = run_cell(params, FAST_PLAN, MILD_NOISE, 0, 2)
    for name in ("Q", "P"):
        assert a.reports[name].L_zne == b.reports[name].L_zne
        assert a.reports[name].L_bbgky == b.reports[name].L_bbgky
        np.testing.assert_array_equal(
            a.reports[name].series_bbgky, b.reports[name].series_bbgky
        )


def test_cell_seed_is_stable_and_distinct():
    seeds = {cell_seed(9, i, j) for i in range(4) for j in range(4)}
    assert len(seeds) == 16
    assert cell_seed(9, 2, 3) == cell_seed(9, 2, 3)
    assert cell_seed(9, 2, 3) != cell_seed(10, 2, 3)


def test_run_scan_grid_layout():
    grid = run_scan(
        (0.0, 0.5),
        (0.0, 0.15),
        SchwingerParams(4, 0.0, 30.0, 0.0, 100.0),
        FAST_PLAN,
        MILD_NOISE,
        radius=0,
        degree=2,
        seed=5,
    )
    header, rows = grid.csv_rows()
    assert header == ["l0", "m_over_g", "observable", "L0", "dL0", "Lb", "dLb"]
    assert len(rows) == 2 * 2 * 2
    assert {row[2] for row in rows} == {"Q", "P"}
    assert set(grid.cells) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    summary = grid.summary()
    assert summary["l0_values"] == [0.0, 0.5]
    assert summary["mass_values"] == [0.0, 0.15]
    for name in ("Q", "P"):
        block = summary["observables"][name]
        assert np.asarray(block["table_L0"]).shape == (2, 2)
        assert np.asarray(block["table_Lb_minus_L0"]).shape == (2, 2)
        assert np.isfinite(block["mean_improvement"])
        result = grid.cells[(1, 1)][name]
        assert result.L_zne >= 0.0 and result.L_bbgky >= 0.0
    # cell results line up with the flattened csv rows
    assert rows[-1][0] == 0.5 and rows[-1][1] == 0.15


def test_run_cell_rejects_too_few_distinct_levels():
    # exact levels (s + 2 floor(eta s)) / s at step 1 are 1, 3, 3, 5 for the
    # default fold levels: three distinct values cannot fix a cubic
    plan = EvolutionPlan(4, 0.8, 1, (0.0, 1.0, 1.5, 2.0), None, 3)
    with pytest.raises(IllPosedFitError, match="step 1: 3 distinct"):
        run_cell(SchwingerParams(2), plan, MILD_NOISE, 0, 3)
    with pytest.raises(IllPosedFitError):
        run_scan([0.0], [0.0], SchwingerParams(2), plan, MILD_NOISE, 0, 3, 1)
