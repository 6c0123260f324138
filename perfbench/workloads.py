"""The four benchmark workloads.

Every workload runs the README quick-start physics (N = 20 steps over T = 4,
first-order Trotter, fold levels 0/1/1.5/2, 10240 shots, degree 2,
``g_weight`` 1, noise 0.001/0.01/0.02) through one public entry point, and in
each a different module does most of the work:

- ``scan_n4_r0``: ``cli.main(["scan", ...])`` over the default 4x4 (l0, m/g)
  grid at n=4, radius 0. Many small cells: pinv, the simulator and the fixed
  per-cell costs (assembly loops, reports, config, CSV/JSON writes).
- ``mitigate_n4_r1``: ``cli.main(["mitigate", ...])`` on files written by
  ``cli simulate`` during set-up, at n=4, radius 1. Solve-bound (pinv of a
  2770x1920 matrix) plus the file-reading path.
- ``cell_n8_r0``: ``run_cell`` at n=8, radius 0. Simulator-bound (dense
  256x256 sandwiches and ``depolarize``), mitigation-light.
- ``hierarchy_n6_r1``: ``cli.main(["hierarchy", ...])`` at n=6, radius 1.
  ``select_subset`` and ``decompose`` over 4**6 strings, no BLAS.

A workload draws a pool of ``POOL`` inputs (parameter points and plan/CLI
seeds) from the benchmark seed; op ``k`` runs input ``k % POOL``. The program
only ever sees the generated config files and measurement files.
"""

from __future__ import annotations

import csv
import json
import shutil
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import bbgky_zne
from bbgky_zne import cli
from bbgky_zne.config import load_config
from bbgky_zne.hierarchy import HierarchySubset
from bbgky_zne.jsonio import load_json
from bbgky_zne.mitigation import ProblemLayout
from bbgky_zne.schwinger import (
    SchwingerParams,
    build_hamiltonian,
    cell_seed,
    hierarchy_seeds,
)
from bbgky_zne.simulator import (
    EvolutionPlan,
    MeasurementSet,
    NoiseModel,
    fold_schedule,
    trotter_factors,
)

import checks

POOL = 3
PARAM_RANGE = (0.0, 1.5)
PLAN = {
    "n_steps": 20,
    "total_time": 4.0,
    "trotter_order": 1,
    "fold_levels": [0.0, 1.0, 1.5, 2.0],
    "shots": 10240,
}
# the config default is zero noise, which would skip depolarize entirely
NOISE = {"depol_1q": 0.001, "depol_2q": 0.01, "readout_flip": 0.02}
DEGREE = 2
G_WEIGHT = 1.0
OBSERVABLES = ("Q", "P")


@dataclass(frozen=True)
class Point:
    l0: float
    mass: float
    seed: int


@dataclass
class Inspection:
    """What the benchmark learns from one op's outputs, outside the timing.

    ``cells`` holds ``{observable: (L_zne, L_bbgky)}`` per mitigated cell;
    ``values`` are the numbers compared with the default-seed reference.
    """

    failures: list[str]
    cells: list[dict[str, tuple[float, float]]]
    values: dict


def quickstart_plan(rng_seed: int = 0) -> EvolutionPlan:
    return EvolutionPlan(**{**PLAN, "fold_levels": tuple(PLAN["fold_levels"])}, rng_seed=rng_seed)


def draw_points(name: str, seed: int, count: int) -> list[Point]:
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    return [
        Point(
            float(rng.uniform(*PARAM_RANGE)),
            float(rng.uniform(*PARAM_RANGE)),
            int(rng.integers(2**31)),
        )
        for _ in range(count)
    ]


def config_doc(n_qubits: int, radius: int, point: Point) -> dict:
    return {
        "seed": point.seed,
        "schwinger": {"n_qubits": n_qubits, "l0": point.l0, "mass_ratio": point.mass},
        "plan": PLAN,
        "noise": NOISE,
        "mitigation": {"degree": DEGREE, "radius": radius, "g_weight": G_WEIGHT},
    }


def cell_counts(
    params: SchwingerParams, radius: int, simulated: bool = True, mitigated: bool = True
) -> dict[str, int]:
    """Computed shape and work counts of one cell, from public functions.
    Parts of the pipeline the op does not run count zero."""
    plan = quickstart_plan()
    ham = build_hamiltonian(params)
    subset = bbgky_zne.select_subset(ham, hierarchy_seeds(params.n_qubits), radius)
    n_levels = len(plan.fold_levels)
    layout = ProblemLayout(subset.n_correlators, plan.n_steps, n_levels, DEGREE, subset.n_equations)
    plain = replace(layout, n_equations=0)
    counts = dict.fromkeys(COUNTS, 0)
    counts["hierarchy.correlators"] = subset.n_correlators
    counts["hierarchy.equations"] = subset.n_equations
    if mitigated:
        counts["mitigation.rows"] = layout.n_rows
        counts["mitigation.cols"] = layout.n_cols
        counts["mitigation.matrix_bytes"] = 8 * (layout.n_rows + plain.n_rows) * layout.n_cols
        counts["schwinger.cells"] = 1
    if simulated:
        factors = trotter_factors(ham, plan.dt, plan.trotter_order)
        rates = [NOISE["depol_1q"] if len(f.string.sites) == 1 else NOISE["depol_2q"] for f in factors]
        folds = sum(2 * sum(fold_schedule(eta, plan.n_steps)) for eta in plan.fold_levels)
        counts["simulator.factor_passes"] = n_levels * plan.n_steps * len(factors)
        counts["simulator.depolarize_applications"] = sum(1 for r in rates if r) * (
            n_levels * plan.n_steps + folds
        )
        counts["simulator.rho_bytes"] = 16 * 4**params.n_qubits
    return counts


COUNTS = (
    "hierarchy.correlators",
    "hierarchy.equations",
    "hierarchy.strings_enumerated",
    "mitigation.rows",
    "mitigation.cols",
    "mitigation.matrix_bytes",
    "schwinger.cells",
    "simulator.factor_passes",
    "simulator.depolarize_applications",
    "simulator.rho_bytes",
)
#: summed over an op's cells; every other count is the largest cell's
PER_OP_COUNTS = ("schwinger.cells", "simulator.factor_passes", "simulator.depolarize_applications")


def merge_counts(per_cell: list[dict[str, int]]) -> dict[str, int]:
    return {
        key: (sum if key in PER_OP_COUNTS else max)(c[key] for c in per_cell) for key in COUNTS
    }


def check_outcome(outcome, dt: float) -> list[str]:
    """Checks of one in-memory :class:`~bbgky_zne.CellOutcome`."""
    m = outcome.measurements
    return (
        checks.zne_matches_baseline(outcome.zne.result.extrapolations, m, DEGREE)
        + checks.least_squares_optimal(
            outcome.bbgky.result.extrapolations, m, outcome.subset, DEGREE, dt, G_WEIGHT
        )
        + checks.charge_constant(outcome.reports["Q"].reference)
    )


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class Workload:
    """One workload: set-up, the timed op, and the untimed inspection."""

    name = ""
    n_qubits = 0
    radius = 0
    # weights of the host-speed probes (probe.py): where the op's time goes
    probe: dict[str, float]

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.out_dir = work_dir / "out"
        self.points = draw_points(self.name, seed, POOL)

    def config_doc(self, point: Point) -> dict:
        return config_doc(self.n_qubits, self.radius, point)

    def prepare(self) -> None:
        """Write the inputs the program will read."""
        self.configs = []
        for i, point in enumerate(self.points):
            path = self.work_dir / f"config{i}.json"
            path.write_text(json.dumps(self.config_doc(point)))
            self.configs.append(path)

    def before_op(self, index: int) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def op(self, index: int):
        raise NotImplementedError

    def inspect(self, index: int, result) -> Inspection:
        raise NotImplementedError

    def counts(self, index: int) -> dict[str, int]:
        raise NotImplementedError

    def params(self, index: int) -> SchwingerParams:
        point = self.points[index % POOL]
        return SchwingerParams(n_qubits=self.n_qubits, l0=point.l0, mass_ratio=point.mass)

    def run_cli(self, command: str, index: int, *extra: str) -> int:
        args = [command, "--config", str(self.configs[index % POOL]), "--out-dir", str(self.out_dir)]
        return cli.main(args + list(extra))


class Scan(Workload):
    name = "scan_n4_r0"
    probe = {"blas": 0.7, "python": 0.3}
    n_qubits = 4
    radius = 0

    def config_doc(self, point: Point) -> dict:
        doc = super().config_doc(point)
        doc["schwinger"] = {"n_qubits": self.n_qubits}  # the default grid sets l0 and m/g
        return doc

    def prepare(self) -> None:
        super().prepare()
        self.config = load_config(self.configs[0])
        self.grid = [
            (i, j, l0, mass)
            for i, l0 in enumerate(self.config.scan.l0_values)
            for j, mass in enumerate(self.config.scan.mass_values)
        ]

    def op(self, index: int) -> int:
        return self.run_cli("scan", index)

    def inspect(self, index: int, code: int) -> Inspection:
        if code != 0:
            return Inspection([f"scan exited {code}"], [], {})
        rows = read_csv(self.out_dir / "scan.csv")
        table = {(float(r["l0"]), float(r["m_over_g"]), r["observable"]): r for r in rows}
        fields = ("L0", "dL0", "Lb", "dLb")
        cells, values = [], {f: [] for f in fields}
        for _, _, l0, mass in self.grid:
            rows = {o: table[(l0, mass, o)] for o in OBSERVABLES}
            cells.append({o: (float(r["L0"]), float(r["Lb"])) for o, r in rows.items()})
            for o in OBSERVABLES:
                for f in fields:
                    values[f].append(float(rows[o][f]))
        failures = self._recheck_cell(index, table)
        return Inspection(failures, cells, values)

    def _recheck_cell(self, index: int, table) -> list[str]:
        """Rerun one grid cell through ``run_cell`` and check it, rotating
        through the grid from op to op."""
        i, j, l0, mass = self.grid[index % len(self.grid)]
        seed = self.points[index % POOL].seed
        params = replace(self.config.schwinger, l0=l0, mass_ratio=mass)
        plan = replace(self.config.plan, rng_seed=cell_seed(seed, i, j))
        outcome = bbgky_zne.run_cell(params, plan, self.config.noise, self.radius, DEGREE, G_WEIGHT)
        failures = check_outcome(outcome, plan.dt)
        for o in OBSERVABLES:
            report = outcome.reports[o]
            row = table[(l0, mass, o)]
            if (float(row["L0"]), float(row["Lb"])) != (report.L_zne, report.L_bbgky):
                failures.append(f"scan cell ({l0}, {mass}) {o} differs from run_cell")
        return failures

    def counts(self, index: int) -> dict[str, int]:
        base = self.config.schwinger
        return merge_counts(
            [cell_counts(replace(base, l0=l0, mass_ratio=mass), self.radius) for _, _, l0, mass in self.grid]
        )


class Mitigate(Workload):
    name = "mitigate_n4_r1"
    probe = {"blas": 1.0}
    n_qubits = 4
    radius = 1

    def prepare(self) -> None:
        super().prepare()
        self.inputs = []
        for i in range(POOL):
            sim_dir = self.work_dir / f"sim{i}"
            code = cli.main(["simulate", "--config", str(self.configs[i]), "--out-dir", str(sim_dir)])
            if code != 0:
                raise RuntimeError(f"set-up simulate exited {code}")
            self.inputs.append(
                (
                    sim_dir,
                    MeasurementSet.from_dict(load_json(sim_dir / "measurements.json")),
                    HierarchySubset.from_dict(load_json(sim_dir / "subset.json")),
                )
            )

    def op(self, index: int) -> int:
        sim_dir = self.inputs[index % POOL][0]
        return self.run_cli(
            "mitigate",
            index,
            "--measurements",
            str(sim_dir / "measurements.json"),
            "--subset",
            str(sim_dir / "subset.json"),
        )

    def inspect(self, index: int, code: int) -> Inspection:
        if code != 0:
            return Inspection([f"mitigate exited {code}"], [], {})
        _, measurements, subset = self.inputs[index % POOL]
        doc = load_json(self.out_dir / "mitigated.json")
        failures = checks.zne_matches_baseline(doc["zne"]["extrapolations"], measurements, DEGREE)
        failures += checks.least_squares_optimal(
            doc["bbgky"]["extrapolations"], measurements, subset, DEGREE, quickstart_plan().dt, G_WEIGHT
        )
        charge = [
            float(r["reference"])
            for r in read_csv(self.out_dir / "mitigated.csv")
            if r["method"] == "bbgky" and r["observable"] == "Q"
        ]
        failures += checks.charge_constant(charge)
        norms = {
            method: {o["name"]: (o["L"], o["dL"]) for o in doc[method]["observables"]}
            for method in ("zne", "bbgky")
        }
        cells = [{o: (norms["zne"][o][0], norms["bbgky"][o][0]) for o in OBSERVABLES}]
        values = {
            f"{method}.{o}.{k}": norms[method][o][i]
            for method in ("zne", "bbgky")
            for o in OBSERVABLES
            for i, k in enumerate(("L", "dL"))
        }
        for method in ("zne", "bbgky"):
            extrapolations = np.asarray(doc[method]["extrapolations"])
            values[f"{method}.sum"] = float(extrapolations.sum())
            values[f"{method}.sumsq"] = float((extrapolations**2).sum())
        return Inspection(failures, cells, values)

    def counts(self, index: int) -> dict[str, int]:
        return merge_counts([cell_counts(self.params(index), self.radius, simulated=False)])


class Cell(Workload):
    name = "cell_n8_r0"
    probe = {"blas": 0.9, "python": 0.1}
    n_qubits = 8
    radius = 0

    def prepare(self) -> None:
        self.plan = quickstart_plan()
        self.noise = NoiseModel(**NOISE)

    def op(self, index: int):
        plan = replace(self.plan, rng_seed=self.points[index % POOL].seed)
        return bbgky_zne.run_cell(self.params(index), plan, self.noise, self.radius, DEGREE, G_WEIGHT)

    def inspect(self, index: int, outcome) -> Inspection:
        failures = check_outcome(outcome, self.plan.dt)
        reports = outcome.reports
        cells = [{o: (reports[o].L_zne, reports[o].L_bbgky) for o in OBSERVABLES}]
        values = {
            f"{o}.{k}": getattr(reports[o], k)
            for o in OBSERVABLES
            for k in ("L_zne", "dL_zne", "L_bbgky", "dL_bbgky")
        }
        return Inspection(failures, cells, values)

    def counts(self, index: int) -> dict[str, int]:
        return merge_counts([cell_counts(self.params(index), self.radius)])


class Hierarchy(Workload):
    name = "hierarchy_n6_r1"
    probe = {"python": 1.0}
    n_qubits = 6
    radius = 1

    def op(self, index: int) -> int:
        return self.run_cli("hierarchy", index)

    def inspect(self, index: int, code: int) -> Inspection:
        if code != 0:
            return Inspection([f"hierarchy exited {code}"], [], {})
        sizes = load_json(self.out_dir / "components.json")["sizes"]
        subset = HierarchySubset.from_dict(load_json(self.out_dir / "subset.json"))
        failures = checks.component_sizes(sizes, self.n_qubits)
        coeffs = np.array([c for eq in subset.equations for c, _ in eq.terms])
        values = {
            "components": len(sizes),
            "largest_component": max(sizes),
            "equations": subset.n_equations,
            "correlators": subset.n_correlators,
            "terms": int(coeffs.size),
            "coeff_abs_sum": float(np.abs(coeffs).sum()),
            "coeff_sq_sum": float((coeffs**2).sum()),
        }
        return Inspection(failures, [], values)

    def counts(self, index: int) -> dict[str, int]:
        counts = cell_counts(self.params(index), self.radius, simulated=False, mitigated=False)
        counts["hierarchy.strings_enumerated"] = 4**self.n_qubits
        return counts


WORKLOADS = {w.name: w for w in (Scan, Mitigate, Cell, Hierarchy)}
