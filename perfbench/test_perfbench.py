"""Tests of the benchmark's own parts: span self times, the tracer's
rebinding, the host-speed scaling, and each output check rejecting a
corrupted result.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bbgky_zne  # noqa: E402
from bbgky_zne import cli, mitigation  # noqa: E402
from bbgky_zne.schwinger import SchwingerParams, build_hamiltonian  # noqa: E402

import checks  # noqa: E402
import probe  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, install, self_time_per_op, self_times  # noqa: E402


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        Span(0, None, 7, "root", 0.0, 10.0),
        Span(1, 0, 7, "a", 1.0, 4.0),
        Span(2, 0, 7, "b", 3.0, 6.0),  # overlaps a: union is [1, 6]
        Span(3, 0, 7, "c", 8.0, 12.0),  # runs past the parent: clipped to [8, 10]
        Span(4, 1, 7, "a", 2.0, 3.0),
        Span(5, None, 8, "root", 20.0, 21.5),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 3.0, 3: 4.0, 4: 1.0, 5: 1.5})
    per_op = self_time_per_op(spans)
    assert per_op[7] == pytest.approx({"root": 3.0, "a": 3.0, "b": 3.0, "c": 4.0})
    assert per_op[8] == pytest.approx({"root": 1.5})


@pytest.fixture(scope="module")
def outcome():
    plan = workloads.quickstart_plan(rng_seed=4)
    params = SchwingerParams(n_qubits=2, l0=0.4, mass_ratio=0.3)
    noise = workloads.NoiseModel(**workloads.NOISE)
    return bbgky_zne.run_cell(params, plan, noise, 0, workloads.DEGREE, workloads.G_WEIGHT), plan


def test_tracer_records_layers_and_restores_bindings(tmp_path, outcome):
    _, plan = outcome
    config = tmp_path / "config.json"
    config.write_text('{"seed": 3, "schwinger": {"n_qubits": 2}}')
    original = mitigation.solve
    tracer = Tracer()
    restore = install(tracer)
    try:
        assert cli.run_mitigation is mitigation.run_mitigation
        assert bbgky_zne.solve is mitigation.solve is not original
        tracer.begin_op(0)
        assert cli.main(["hierarchy", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 0
        tracer.end_op()
        tracer.begin_op(1)
        bbgky_zne.run_cell(SchwingerParams(n_qubits=2), plan, workloads.NoiseModel(**workloads.NOISE), 0, 2)
        tracer.end_op()
        bbgky_zne.run_cell(SchwingerParams(n_qubits=2), plan, workloads.NoiseModel(), 0, 2)
    finally:
        restore()
    assert mitigation.solve is original and bbgky_zne.solve is original

    names = {op: {s.name for s in tracer.spans if s.op == op} for op in (0, 1)}
    assert {"cli.self_s", "config.load_s", "jsonio.read_s", "jsonio.write_s",
            "hierarchy.select_subset_s", "hierarchy.decompose_s"} <= names[0]
    assert {"schwinger.run_cell_self_s", "simulator.evolve_noisy_s", "mitigation.assemble_s",
            "mitigation.solve_s.bbgky", "mitigation.solve_s.zne"} <= names[1]
    assert all(s.op in (0, 1) for s in tracer.spans), "calls outside an op leave no span"
    assert tracer.counts[(0, "jsonio.bytes_read")] == config.stat().st_size
    written = sum(p.stat().st_size for p in (tmp_path / "out").iterdir())
    assert tracer.counts[(0, "jsonio.bytes_written")] == written

    per_op = self_time_per_op(tracer.spans)
    for op in (0, 1):
        roots = [s for s in tracer.spans if s.op == op and s.parent is None]
        assert len(roots) == 1
        assert sum(per_op[op].values()) == pytest.approx(roots[0].end - roots[0].start)


def test_traced_run_traces_every_second_op_only():
    original = mitigation.solve

    class Probe:
        probe = {"python": 1.0}
        seen: list[bool] = []

        def before_op(self, index):
            pass

        def op(self, index):
            self.seen.append(mitigation.solve is not original)

        def inspect(self, index, result):
            return workloads.Inspection([], [], {})

    runner = worker.Runner(Probe(), None)
    samples, traced, probes = runner.timed(1, 0.0, Tracer())
    assert (list(samples), traced) == ([1, 2], {2}), "one op of each kind at the least"
    assert [[list(p) for p in probes[i]] for i in (1, 2)] == [[["python"]]] * 2, "a probe after every op"
    samples, traced, _ = runner.timed(1, 0.0)
    assert (list(samples), traced) == ([1], set())
    assert Probe.seen == [False, True, False]
    assert mitigation.solve is original and runner.tracer is None


def test_each_op_is_scaled_by_the_probes_around_it():
    nominal = probe.NOMINAL_S
    samples = [{"python": 2 * nominal["python"], "blas": nominal["blas"]}] * 3
    assert probe.slowness({"python": 1.0}, samples) == pytest.approx(2.0)
    assert probe.slowness({"blas": 0.5, "python": 0.5}, samples) == pytest.approx(1.5)
    probes = {0: [{"python": nominal["python"]}] * 2}  # after the set-up
    probes[1] = [{"python": 2 * nominal["python"]}]
    probes[2] = [{"python": 3 * nominal["python"]}] * 3
    assert worker.op_slowness({"python": 1.0}, probes) == pytest.approx({1: 4 / 3, 2: 11 / 4})


def test_every_workload_weighs_its_probes():
    for workload in workloads.WORKLOADS.values():
        assert set(workload.probe) <= set(probe.PROBES) and sum(workload.probe.values()) == pytest.approx(1.0)


def test_checks_accept_the_program_outputs(outcome):
    cell, plan = outcome
    assert workloads.check_outcome(cell, plan.dt) == []
    sizes = bbgky_zne.decompose(build_hamiltonian(SchwingerParams(n_qubits=2)))
    assert checks.component_sizes(sizes, 2) == []


def test_zne_check_rejects_a_perturbed_extrapolation(outcome):
    cell, _ = outcome
    bad = cell.zne.result.extrapolations.copy()
    bad[1, 2] += 1e-6
    assert checks.zne_matches_baseline(bad, cell.measurements, workloads.DEGREE)


def test_optimality_check_rejects_a_perturbed_extrapolation(outcome):
    cell, plan = outcome
    bad = cell.bbgky.result.extrapolations.copy()
    bad[0, 3] += 1e-6
    assert checks.least_squares_optimal(
        bad, cell.measurements, cell.subset, workloads.DEGREE, plan.dt, workloads.G_WEIGHT
    )
    # the unconstrained answer is not optimal for the constrained problem
    assert checks.least_squares_optimal(
        cell.zne.result.extrapolations, cell.measurements, cell.subset,
        workloads.DEGREE, plan.dt, workloads.G_WEIGHT,
    )


def test_charge_check_rejects_a_drifting_series(outcome):
    cell, _ = outcome
    series = cell.reports["Q"].reference.copy()
    assert checks.charge_constant(series) == []
    series[-1] += 1e-6
    assert checks.charge_constant(series)


def test_component_check_rejects_wrong_sizes():
    sizes = bbgky_zne.decompose(build_hamiltonian(SchwingerParams(n_qubits=2)))
    assert checks.component_sizes(sizes[:-1], 2)
    assert checks.component_sizes(sizes + [1], 2)
    assert checks.component_sizes([0] + sizes, 2)
    assert checks.component_sizes([], 2)


def test_reference_check_allows_rounding_but_not_a_new_draw():
    reference = {"L": [0.0123, 0.0456], "equations": 16}
    assert checks.matches_reference({"L": [0.0123 + 1e-15, 0.0456], "equations": 16}, reference) == []
    assert checks.matches_reference({"L": [0.0123, 0.0457], "equations": 16}, reference)
    assert checks.matches_reference({"L": [0.0123, 0.0456], "equations": 17}, reference)
    assert checks.matches_reference({"L": [0.0123], "equations": 16}, reference)
    assert checks.matches_reference({"equations": 16}, reference)


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    a = workloads.draw_points("cell_n8_r0", 5, workloads.POOL)
    assert a == workloads.draw_points("cell_n8_r0", 5, workloads.POOL)
    assert a != workloads.draw_points("cell_n8_r0", 6, workloads.POOL)
    assert a != workloads.draw_points("scan_n4_r0", 5, workloads.POOL)


def test_computed_counts_match_the_program(outcome):
    cell, _ = outcome
    counts = workloads.cell_counts(cell.params, 0)
    layout = cell.bbgky.problem.layout
    assert counts["mitigation.rows"] == layout.n_rows
    assert counts["mitigation.cols"] == layout.n_cols
    assert counts["mitigation.matrix_bytes"] == (
        cell.bbgky.problem.matrix.nbytes + cell.zne.problem.matrix.nbytes
    )
    assert counts["hierarchy.correlators"] == cell.subset.n_correlators
    assert counts["hierarchy.equations"] == cell.subset.n_equations
    assert counts["simulator.rho_bytes"] == 16 * 4**2


def test_depolarize_count_matches_the_simulator(monkeypatch):
    from bbgky_zne import simulator

    calls = []
    real = simulator.depolarize
    monkeypatch.setattr(simulator, "depolarize", lambda *a: calls.append(1) or real(*a))
    params = SchwingerParams(n_qubits=2, l0=0.4, mass_ratio=0.3)
    bbgky_zne.run_cell(params, workloads.quickstart_plan(rng_seed=1), workloads.NoiseModel(**workloads.NOISE), 0, 2)
    counts = workloads.cell_counts(params, 0)
    assert len(calls) == counts["simulator.depolarize_applications"]
