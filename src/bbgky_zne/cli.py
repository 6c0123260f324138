"""Command-line interface.

Subcommands::

    hierarchy   derive the constraint subset (and component sizes) only
    simulate    run the noisy simulation and write the measurement files
    mitigate    consume measurement + subset files, write mitigated series
    scan        sweep an (l0, m/g) grid end to end

Exit codes: 0 success, 2 configuration/validation error, 3 resource-limit
error, 4 numerical failure. All runs with the same seed and inputs produce
byte-identical output files.
"""

from __future__ import annotations

import argparse
import io
import sys
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, load_config
from .errors import ConfigError, IllPosedFitError, ResourceLimitError
from .hierarchy import (
    DECOMPOSE_MAX_QUBITS,
    HierarchySubset,
    decompose,
    derive_equation,
    select_subset,
)
from .jsonio import (
    atomic_write_bytes,
    atomic_write_text,
    dump_csv,
    dump_json,
    load_json,
)
from .mitigation import propagate_std, run_mitigation
from .pauli import ObservableCombination
from .schwinger import (
    build_hamiltonian,
    hierarchy_seeds,
    report_observables,
    run_scan,
    tracked_observables,
)
from .simulator import MeasurementSet, evolve_exact, evolve_noisy


def _subset_for(config: ExperimentConfig):
    ham = build_hamiltonian(config.schwinger)
    seeds = config.hierarchy_seeds or hierarchy_seeds(config.schwinger.n_qubits)
    return ham, select_subset(ham, seeds, config.mitigation.radius)


def cmd_hierarchy(config: ExperimentConfig, out_dir: Path) -> int:
    ham, subset = _subset_for(config)
    dump_json(subset.to_dict(), out_dir / "subset.json")
    listing = [str(eq) for eq in subset.equations]
    atomic_write_text(out_dir / "equations.txt", "\n".join(listing) + "\n")
    if config.schwinger.n_qubits <= DECOMPOSE_MAX_QUBITS:
        dump_json({"sizes": decompose(ham)}, out_dir / "components.json")
    print(f"wrote {out_dir / 'subset.json'}")
    return 0


def cmd_simulate(config: ExperimentConfig, out_dir: Path) -> int:
    ham, subset = _subset_for(config)
    measurements = evolve_noisy(
        ham, config.initial_state, config.plan, config.noise, subset.correlators
    )
    dump_json(subset.to_dict(), out_dir / "subset.json")
    dump_json(measurements.to_dict(), out_dir / "measurements.json")
    header, rows = measurements.csv_rows()
    dump_csv(out_dir / "measurements.csv", header, rows)

    named = tracked_observables(config.schwinger.n_qubits)
    observables = list(named.values()) + [
        ObservableCombination(0.0, ((1.0, c),)) for c in subset.correlators
    ]
    reference = evolve_exact(ham, config.initial_state, config.plan.times, observables)
    dump_json(
        {
            "times": list(config.plan.times),
            "observables": [
                {"name": name, "series": reference[i].tolist()}
                for i, name in enumerate(named)
            ],
            "correlators": [
                {"string": c.token(), "series": reference[len(named) + i].tolist()}
                for i, c in enumerate(subset.correlators)
            ],
        },
        out_dir / "reference.json",
    )
    print(f"wrote {out_dir / 'measurements.json'}")
    return 0


def cmd_mitigate(
    config: ExperimentConfig,
    measurements_path: Path,
    subset_path: Path,
    out_dir: Path,
    zne_only: bool = False,
    dump_matrix: Path | None = None,
) -> int:
    measurements = MeasurementSet.from_dict(load_json(measurements_path))
    subset = HierarchySubset.from_dict(load_json(subset_path))
    n_qubits = config.schwinger.n_qubits
    strings = {*measurements.correlators, *subset.correlators}
    strings.update(s for eq in subset.equations for s in (eq.lhs, *eq.strings))
    beyond = sorted(s.token() for s in strings if s.max_site() > n_qubits)
    if beyond:
        raise ValueError(f"strings {beyond} lie beyond the {n_qubits}-qubit register")
    ham = build_hamiltonian(config.schwinger)
    for equation in subset.equations:
        derived = derive_equation(ham, equation.lhs)
        if equation.strings != derived.strings or not np.allclose(
            [c for c, _ in equation.terms], [c for c, _ in derived.terms], rtol=1e-12, atol=0.0
        ):
            raise ValueError(
                f"equation for {equation.lhs.token()} differs from the config's "
                f"Hamiltonian: got {equation}, expected {derived}"
            )

    degree = config.mitigation.degree
    dt = config.plan.dt
    if zne_only:
        plain = constrained = run_mitigation(measurements, None, degree, dt)
    else:
        constrained = run_mitigation(
            measurements, subset, degree, dt, config.mitigation.g_weight
        )
        plain = run_mitigation(measurements, None, degree, dt)
    if dump_matrix is not None:
        buffer = io.BytesIO()
        np.savez(
            buffer,
            matrix=constrained.problem.matrix,
            target=constrained.problem.target,
        )
        atomic_write_bytes(dump_matrix, buffer.getvalue())

    measured = set(measurements.correlators)
    observables = {
        name: combo
        for name, combo in tracked_observables(config.schwinger.n_qubits).items()
        if all(s in measured for s in combo.strings)
    }
    references = []
    if observables:
        references = evolve_exact(
            ham,
            config.initial_state,
            config.plan.times,
            list(observables.values()),
        )
    reports = report_observables(
        measurements, observables, references, plain, constrained, dt
    )

    result_doc: dict = {}
    csv_rows = []
    for label, output in (("zne", plain), ("bbgky", constrained)):
        extrapolations = output.result.extrapolations
        doc = {
            "correlators": [c.token() for c in measurements.correlators],
            "extrapolations": extrapolations.tolist(),
            "std": propagate_std(output.covariance, extrapolations.shape).tolist(),
            "observables": [],
        }
        for name, report in reports.items():
            series = getattr(report, f"series_{label}")
            std_series = getattr(report, f"std_{label}")
            doc["observables"].append(
                {
                    "name": name,
                    "L": getattr(report, f"L_{label}"),
                    "dL": getattr(report, f"dL_{label}"),
                    "series": series.tolist(),
                    "std_series": std_series.tolist(),
                }
            )
            for s in range(measurements.n_steps + 1):
                csv_rows.append(
                    (
                        label,
                        name,
                        s,
                        s * dt,
                        series[s],
                        float(std_series[s]),
                        float(report.reference[s]),
                    )
                )
        result_doc[label] = doc

    dump_json(result_doc, out_dir / "mitigated.json")
    dump_csv(
        out_dir / "mitigated.csv",
        ["method", "observable", "step", "time", "value", "std", "reference"],
        csv_rows,
    )
    print(f"wrote {out_dir / 'mitigated.json'}")
    return 0


def cmd_scan(config: ExperimentConfig, out_dir: Path) -> int:
    if config.hierarchy_seeds is not None:
        raise ConfigError("hierarchy.seeds: scan constrains with the Z seeds of Q and P")
    grid = run_scan(
        config.scan.l0_values,
        config.scan.mass_values,
        config.schwinger,
        config.plan,
        config.noise,
        config.mitigation.radius,
        config.mitigation.degree,
        config.seed,
        config.mitigation.g_weight,
        config.initial_state,
    )
    header, rows = grid.csv_rows()
    dump_csv(out_dir / "scan.csv", header, rows)
    dump_json(grid.summary(), out_dir / "summary.json")
    print(f"wrote {out_dir / 'scan.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bbgky-zne",
        description="hierarchy-constrained zero-noise extrapolation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=Path, default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the RNG seed")
        p.add_argument("--out-dir", type=Path, default=None, help="output directory")
        p.add_argument(
            "--radius", type=int, default=None, help="override the subset radius"
        )
        p.add_argument(
            "--degree", type=int, default=None, help="override the fit degree"
        )
        p.add_argument(
            "--shots", type=int, default=None, help="override the shot count"
        )
        p.add_argument(
            "--infinite-shots",
            action="store_true",
            help="exact expectations: no sampling, no level shift",
        )

    for name in ("hierarchy", "simulate", "mitigate", "scan"):
        p = sub.add_parser(name)
        add_common(p)
        if name == "mitigate":
            p.add_argument("--measurements", type=Path, required=True)
            p.add_argument("--subset", type=Path, required=True)
            p.add_argument(
                "--zne-only",
                action="store_true",
                help="drop the constraint rows from the joint problem",
            )
            p.add_argument(
                "--dump-matrix",
                type=Path,
                default=None,
                help="write the assembled matrix and target to an .npz file",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(
            args.config,
            seed=args.seed,
            shots=args.shots,
            infinite_shots=args.infinite_shots,
            out_dir=str(args.out_dir) if args.out_dir is not None else None,
            radius=args.radius,
            degree=args.degree,
        )
        out_dir = Path(config.out_dir)
        if args.command == "hierarchy":
            return cmd_hierarchy(config, out_dir)
        if args.command == "simulate":
            return cmd_simulate(config, out_dir)
        if args.command == "mitigate":
            return cmd_mitigate(
                config,
                args.measurements,
                args.subset,
                out_dir,
                zne_only=args.zne_only,
                dump_matrix=args.dump_matrix,
            )
        if args.command == "scan":
            return cmd_scan(config, out_dir)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except (IllPosedFitError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except (ValueError, FileNotFoundError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
