import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from bbgky_zne import cli, mitigation
from bbgky_zne.cli import main
from bbgky_zne.config import load_config
from bbgky_zne.hierarchy import HierarchySubset
from bbgky_zne.jsonio import load_json
from bbgky_zne.schwinger import run_cell
from bbgky_zne.simulator import MeasurementSet

BASE_CONFIG = {
    "seed": 11,
    "schwinger": {"n_qubits": 4, "mass_ratio": 0.5, "volume": 30.0, "l0": 0.5},
    "plan": {
        "n_steps": 5,
        "total_time": 1.0,
        "trotter_order": 1,
        "fold_levels": [0.0, 1.0, 2.0],
        "shots": 1024,
    },
    "noise": {"depol_1q": 0.001, "depol_2q": 0.01, "readout_flip": 0.02},
    "mitigation": {"degree": 2, "radius": 0, "g_weight": 1.0},
    "scan": {"l0_values": [0.0, 0.5], "mass_values": [0.0]},
}


def write_config(tmp_path, overrides=None, name="config.json"):
    doc = json.loads(json.dumps(BASE_CONFIG))
    for key, value in (overrides or {}).items():
        if isinstance(value, dict):
            doc.setdefault(key, {}).update(value)
        else:
            doc[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_hierarchy_subcommand(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["hierarchy", "--config", str(config), "--out-dir", str(out)]) == 0
    subset = json.loads((out / "subset.json").read_text())
    assert subset["r"] == 0
    assert subset["seeds"] == ["Z1", "Z2", "Z3", "Z4"]
    assert len(subset["correlators"]) == 10
    assert len(subset["equations"]) == 4
    components = json.loads((out / "components.json").read_text())
    assert components["sizes"] == [1, 1, 126, 128]
    lines = (out / "equations.txt").read_text().strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("d/dt <Z1> =")


# SHA-256 of the hierarchy outputs for BASE_CONFIG, recorded when the
# equations were still derived from per-case Levi-Civita rules
HIERARCHY_SHA256 = {
    1: {
        "subset.json": "9d6e4858ffe211827a14db8de5274f7effe7b37085f4b1d73f56a392b8cf19e1",
        "equations.txt": "71e44064536a3dc3716bc6d0f976f031ce37085a7c4f422c30cd0eb023fa158b",
        "components.json": "b77d213bf5c127354bb7e277c413bcb67be4ae52e399b6edf3f6be0ae92d4cf7",
    },
    2: {
        "subset.json": "61859b42ac32523a23b6fbcec48f9639dec5b1ca864efe08436b28c1d5db31b1",
        "equations.txt": "6b0691c5c1f0c8c291a7eec50fe4d5f3374ea4c6256abfb1d95625a013de57da",
        "components.json": "b77d213bf5c127354bb7e277c413bcb67be4ae52e399b6edf3f6be0ae92d4cf7",
    },
}


@pytest.mark.parametrize("radius", sorted(HIERARCHY_SHA256))
def test_hierarchy_outputs_are_pinned(tmp_path, radius):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    argv = ["hierarchy", "--config", str(config), "--radius", str(radius), "--out-dir", str(out)]
    assert main(argv) == 0
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in HIERARCHY_SHA256[radius]
    }
    assert digests == HIERARCHY_SHA256[radius]


def test_simulate_writes_consistent_files(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(config), "--out-dir", str(out)]) == 0
    measurements = json.loads((out / "measurements.json").read_text())
    assert measurements["shots"] == 1024
    values = np.asarray(measurements["values"])
    assert values.shape == (10, 5, 3)
    assert np.abs(values).max() <= 1.0
    reference = json.loads((out / "reference.json").read_text())
    assert len(reference["times"]) == 6
    names = [entry["name"] for entry in reference["observables"]]
    assert names == ["Q", "P"]
    csv_lines = (out / "measurements.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "correlator,step,level,eps,value"
    assert len(csv_lines) == 1 + 10 * 5 * 3


def test_simulate_is_byte_deterministic(tmp_path):
    config = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(config), "--out-dir", str(out1)]) == 0
    assert main(["simulate", "--config", str(config), "--out-dir", str(out2)]) == 0
    for name in ("measurements.json", "measurements.csv", "subset.json", "reference.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_mitigate_pipeline(tmp_path):
    config = write_config(tmp_path)
    run = tmp_path / "run"
    out = tmp_path / "fit"
    assert main(["simulate", "--config", str(config), "--out-dir", str(run)]) == 0
    assert (
        main(
            [
                "mitigate",
                "--config", str(config),
                "--out-dir", str(out),
                "--measurements", str(run / "measurements.json"),
                "--subset", str(run / "subset.json"),
                "--dump-matrix", str(out / "problem.npz"),
            ]
        )
        == 0
    )
    doc = json.loads((out / "mitigated.json").read_text())
    assert set(doc) == {"zne", "bbgky"}
    for block in doc.values():
        assert len(block["correlators"]) == 10
        assert np.asarray(block["extrapolations"]).shape == (10, 5)
        names = [o["name"] for o in block["observables"]]
        assert names == ["Q", "P"]
        for obs in block["observables"]:
            assert len(obs["series"]) == 6
            assert obs["L"] >= 0.0
    with np.load(out / "problem.npz") as payload:
        matrix, target = payload["matrix"], payload["target"]
    assert matrix.shape == (3 * 5 * 10 + 4 * 6, 3 * 5 * 10)
    problem = mitigation.assemble(
        MeasurementSet.from_dict(load_json(run / "measurements.json")),
        HierarchySubset.from_dict(load_json(run / "subset.json")),
        2,
        load_config(config).plan.dt,
    )
    np.testing.assert_array_equal(matrix, problem.matrix)
    np.testing.assert_array_equal(target, problem.target)
    csv_lines = (out / "mitigated.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "method,observable,step,time,value,std,reference"
    assert len(csv_lines) == 1 + 2 * 2 * 6
    assert "np.float64" not in csv_lines[1]


def test_mitigate_zne_only_collapses_methods(tmp_path):
    config = write_config(tmp_path)
    run = tmp_path / "run"
    out = tmp_path / "fit"
    assert main(["simulate", "--config", str(config), "--out-dir", str(run)]) == 0
    args = [
        "mitigate",
        "--config", str(config),
        "--out-dir", str(out),
        "--measurements", str(run / "measurements.json"),
        "--subset", str(run / "subset.json"),
        "--zne-only",
    ]
    assert main(args) == 0
    doc = json.loads((out / "mitigated.json").read_text())
    assert doc["zne"]["extrapolations"] == doc["bbgky"]["extrapolations"]


def mitigate_args(config, run, out, *extra):
    return [
        "mitigate",
        "--config", str(config),
        "--out-dir", str(out),
        "--measurements", str(run / "measurements.json"),
        "--subset", str(run / "subset.json"),
        *extra,
    ]


@pytest.mark.parametrize("extra", [(), ("--zne-only",)], ids=["constrained", "zne_only"])
def test_mitigate_is_byte_deterministic(tmp_path, extra):
    config = write_config(tmp_path)
    run = tmp_path / "run"
    assert main(["simulate", "--config", str(config), "--out-dir", str(run)]) == 0
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(mitigate_args(config, run, out1, *extra)) == 0
    assert main(mitigate_args(config, run, out2, *extra)) == 0
    for name in ("mitigated.json", "mitigated.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_mitigate_reports_match_run_cell(tmp_path):
    # simulate + mitigate and run_cell share one report: same L and dL
    config_path = write_config(tmp_path, {"mitigation": {"radius": 1}})
    run = tmp_path / "run"
    out = tmp_path / "fit"
    assert main(["simulate", "--config", str(config_path), "--out-dir", str(run)]) == 0
    assert main(mitigate_args(config_path, run, out)) == 0
    doc = json.loads((out / "mitigated.json").read_text())

    config = load_config(config_path)
    outcome = run_cell(
        config.schwinger,
        config.plan,
        config.noise,
        config.mitigation.radius,
        config.mitigation.degree,
        config.mitigation.g_weight,
        config.initial_state,
    )
    for label in ("zne", "bbgky"):
        assert [o["name"] for o in doc[label]["observables"]] == ["Q", "P"]
        for obs in doc[label]["observables"]:
            report = outcome.reports[obs["name"]]
            assert obs["L"] == getattr(report, f"L_{label}")
            assert obs["dL"] == getattr(report, f"dL_{label}")


def test_mitigate_zne_only_solves_once(tmp_path, monkeypatch):
    config = write_config(tmp_path)
    run = tmp_path / "run"
    assert main(["simulate", "--config", str(config), "--out-dir", str(run)]) == 0
    subsets = []

    def counting(measurements, subset, *args, **kwargs):
        subsets.append(subset)
        return mitigation.run_mitigation(measurements, subset, *args, **kwargs)

    monkeypatch.setattr(cli, "run_mitigation", counting)
    assert main(mitigate_args(config, run, tmp_path / "fit", "--zne-only")) == 0
    assert subsets == [None]


def test_scan_subcommand(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "scan"
    assert main(["scan", "--config", str(config), "--out-dir", str(out)]) == 0
    lines = (out / "scan.csv").read_text().strip().splitlines()
    assert lines[0] == "l0,m_over_g,observable,L0,dL0,Lb,dLb"
    assert len(lines) == 1 + 2 * 1 * 2
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["observables"]) == {"Q", "P"}


def test_unknown_config_key_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, {"bogus": 1})
    assert main(["simulate", "--config", str(config)]) == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides",
    [
        {"plan": {"total_time": float("inf")}},
        {"plan": {"fold_levels": [0.0, float("inf")]}},
        {"schwinger": {"volume": float("inf")}},
        {"mitigation": {"g_weight": float("inf")}},
        {"scan": {"l0_values": [0.0, float("inf")]}},
    ],
    ids=["total_time", "fold_levels", "volume", "g_weight", "l0_values"],
)
def test_non_finite_config_values_exit_2(tmp_path, capsys, overrides):
    # json writes these as the non-standard literal Infinity, which it also reads
    config = write_config(tmp_path, overrides)
    assert "Infinity" in config.read_text()
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(config), "--out-dir", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_oversized_system_exits_3(tmp_path, capsys):
    config = write_config(
        tmp_path, {"schwinger": {"n_qubits": 10}, "initial_state": "01" * 5}
    )
    out = tmp_path / "big"
    assert main(["simulate", "--config", str(config), "--out-dir", str(out)]) == 3
    assert "resource" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["scan", "mitigate"])
def test_unaffordable_mitigation_exits_3_before_the_solve(tmp_path, capsys, command):
    """At n = 8, r = 3 and 20 steps the constrained fit needs 16.5 GiB; both
    commands stop before building any of it."""
    overrides = {
        "schwinger": {"n_qubits": 8},
        "initial_state": "01" * 4,
        "plan": {"n_steps": 20},
        "mitigation": {"radius": 3},
    }
    config_path = write_config(tmp_path, overrides)
    argv = [command, "--config", str(config_path), "--out-dir", str(tmp_path / "out")]
    if command == "mitigate":
        config = load_config(config_path)
        _, subset = cli._subset_for(config)
        n_steps, n_levels = config.plan.n_steps, len(config.plan.fold_levels)
        eps = np.broadcast_to(1.0 + 2.0 * np.arange(n_levels), (n_steps, n_levels))
        measurements = MeasurementSet(
            subset.correlators,
            np.zeros((subset.n_correlators, n_steps, n_levels)),
            eps,
            np.zeros(subset.n_correlators),
            config.plan.shots,
        )
        (tmp_path / "measurements.json").write_text(json.dumps(measurements.to_dict()))
        (tmp_path / "subset.json").write_text(json.dumps(subset.to_dict()))
        argv += ["--measurements", str(tmp_path / "measurements.json")]
        argv += ["--subset", str(tmp_path / "subset.json")]
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "resource limit" in capsys.readouterr().err
    assert peak < 2**26
    assert not (tmp_path / "out").exists()


def test_degenerate_levels_exit_4(tmp_path, capsys):
    # with exact error levels, eta 0.4 and 0.6 coincide at early steps, so a
    # quadratic per-step fit is ill posed
    config = write_config(
        tmp_path,
        {"plan": {"fold_levels": [0.0, 0.4, 0.6], "shots": None}},
    )
    run = tmp_path / "run"
    out = tmp_path / "fit"
    assert main(["simulate", "--config", str(config), "--out-dir", str(run)]) == 0
    code = main(
        [
            "mitigate",
            "--config", str(config),
            "--out-dir", str(out),
            "--measurements", str(run / "measurements.json"),
            "--subset", str(run / "subset.json"),
        ]
    )
    assert code == 4
    assert "numerical" in capsys.readouterr().err


def test_scan_with_too_few_distinct_levels_exits_4(tmp_path, capsys):
    # exact levels at step 1 are 1, 3, 3, 5: a cubic fit is ill posed
    config = write_config(
        tmp_path,
        {
            "plan": {"fold_levels": [0.0, 1.0, 1.5, 2.0], "shots": None},
            "mitigation": {"degree": 3},
            "scan": {"l0_values": [0.0], "mass_values": [0.0]},
        },
    )
    out = tmp_path / "scan"
    assert main(["scan", "--config", str(config), "--out-dir", str(out)]) == 4
    assert "numerical" in capsys.readouterr().err
    assert not (out / "scan.csv").exists()


def test_mismatched_subset_exits_2(tmp_path, capsys):
    config = write_config(tmp_path)
    run = tmp_path / "run"
    assert main(["simulate", "--config", str(config), "--out-dir", str(run)]) == 0
    subset = json.loads((run / "subset.json").read_text())
    subset["correlators"][0], subset["correlators"][1] = (
        subset["correlators"][1],
        subset["correlators"][0],
    )
    subset["seeds"][0], subset["seeds"][1] = subset["seeds"][1], subset["seeds"][0]
    other = tmp_path / "swapped.json"
    other.write_text(json.dumps(subset))
    code = main(
        [
            "mitigate",
            "--config", str(config),
            "--out-dir", str(tmp_path / "fit"),
            "--measurements", str(run / "measurements.json"),
            "--subset", str(other),
        ]
    )
    assert code == 2


def test_missing_measurement_file_exits_2(tmp_path, capsys):
    config = write_config(tmp_path)
    code = main(
        [
            "mitigate",
            "--config", str(config),
            "--out-dir", str(tmp_path / "fit"),
            "--measurements", str(tmp_path / "absent.json"),
            "--subset", str(tmp_path / "also-absent.json"),
        ]
    )
    assert code == 2


@pytest.fixture(scope="module")
def simulated_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("simulated")
    config = write_config(root)
    assert main(["simulate", "--config", str(config), "--out-dir", str(root / "run")]) == 0
    return config, root / "run"


def _set(key, value):
    def edit(doc):
        doc[key] = value
        return doc
    return edit


def _drop(key):
    def edit(doc):
        del doc[key]
        return doc
    return edit


def _set_path(*path, value):
    def edit(doc):
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        return doc
    return edit


@pytest.mark.parametrize(
    "target,edit",
    [
        ("measurements", _set("shots", 0)),
        ("measurements", _set("shots", 2.7)),
        ("measurements", _drop("eps")),
        ("measurements", lambda doc: [doc]),
        ("subset", _drop("r")),
        ("subset", _set("r", 2.7)),
        ("subset", _set("r", -1)),
        ("subset", lambda doc: [doc]),
        ("subset", _set("r", None)),
        ("subset", _set("seeds", 3)),
        ("subset", _set_path("equations", 0, "terms", value=5)),
        ("subset", _set_path("equations", 0, "terms", 0, "coeff", value=None)),
        ("subset", _set_path("equations", 0, "terms", 0, value={"string": "Z1"})),
        ("measurements", _set("correlators", 5)),
        ("measurements", _set_path("correlators", 0, value=7)),
        ("measurements", _set("values", {"a": 1})),
        ("subset", _set("seeds", ["X1", "X2", "X3", "X4"])),
        ("measurements", _set_path("values", 0, 0, 0, value="0.5")),
        ("measurements", _set_path("values", 0, 0, 0, value=True)),
    ],
    ids=[
        "zero-shots",
        "fractional-shots",
        "no-eps",
        "list-measurements",
        "no-r",
        "fractional-r",
        "negative-r",
        "list-subset",
        "null-r",
        "int-seeds",
        "int-terms",
        "null-coeff",
        "term-without-coeff",
        "int-correlators",
        "int-correlator-token",
        "dict-values",
        "mismatched-seeds",
        "string-value",
        "bool-value",
    ],
)
def test_malformed_input_files_exit_2(simulated_run, tmp_path, capsys, target, edit):
    config, run = simulated_run
    paths = {"measurements": run / "measurements.json", "subset": run / "subset.json"}
    paths[target] = tmp_path / f"{target}.json"
    paths[target].write_text(json.dumps(edit(json.loads((run / f"{target}.json").read_text()))))
    code = main(
        [
            "mitigate",
            "--config", str(config),
            "--out-dir", str(tmp_path / "fit"),
            "--measurements", str(paths["measurements"]),
            "--subset", str(paths["subset"]),
        ]
    )
    assert code == 2
    assert "invalid input" in capsys.readouterr().err


def test_mitigate_rejects_strings_beyond_the_register(simulated_run, tmp_path, capsys):
    # the last correlator becomes Z9 at n=4 in both files, also where an
    # equation names it, so the two files still agree with each other
    config, run = simulated_run
    measurements = json.loads((run / "measurements.json").read_text())
    subset = json.loads((run / "subset.json").read_text())
    last = subset["correlators"][-1]
    assert measurements["correlators"][-1] == last
    measurements["correlators"][-1] = subset["correlators"][-1] = "Z9"
    named = 0
    for equation in subset["equations"]:
        for term in equation["terms"]:
            if term["string"] == last:
                term["string"] = "Z9"
                named += 1
    assert named
    paths = {"measurements": measurements, "subset": subset}
    for name, doc in paths.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    out = tmp_path / "fit"
    code = main(
        [
            "mitigate",
            "--config", str(config),
            "--out-dir", str(out),
            "--measurements", str(paths["measurements"]),
            "--subset", str(paths["subset"]),
        ]
    )
    assert code == 2
    assert "Z9" in capsys.readouterr().err
    assert not (out / "mitigated.json").exists()


def test_mitigate_rejects_an_equation_the_hamiltonian_does_not_give(
    simulated_run, tmp_path, capsys
):
    # one coefficient moved by 1e-9 of itself, far above the 1e-12 tolerance
    config, run = simulated_run
    subset = json.loads((run / "subset.json").read_text())
    term = subset["equations"][0]["terms"][0]
    term["coeff"] *= 1.0 + 1e-9
    edited = tmp_path / "subset.json"
    edited.write_text(json.dumps(subset))
    out = tmp_path / "fit"
    code = main(
        [
            "mitigate",
            "--config", str(config),
            "--out-dir", str(out),
            "--measurements", str(run / "measurements.json"),
            "--subset", str(edited),
        ]
    )
    assert code == 2
    assert f"equation for {subset['equations'][0]['lhs']} differs" in capsys.readouterr().err
    assert not (out / "mitigated.json").exists()


def test_custom_hierarchy_seeds_flow_through(tmp_path):
    config = write_config(tmp_path, {"hierarchy": {"seeds": ["Z1"]}})
    out = tmp_path / "out"
    assert main(["hierarchy", "--config", str(config), "--out-dir", str(out)]) == 0
    subset = json.loads((out / "subset.json").read_text())
    assert subset["seeds"] == ["Z1"]
    assert len(subset["equations"]) == 1


def test_scan_rejects_hierarchy_seeds(tmp_path, capsys):
    config = write_config(tmp_path, {"hierarchy": {"seeds": ["X1 X2"]}})
    assert main(["scan", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 2
    assert "hierarchy.seeds" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_seed_override_changes_output(tmp_path):
    config = write_config(tmp_path)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["simulate", "--config", str(config), "--out-dir", str(out1)]) == 0
    assert main(
        ["simulate", "--config", str(config), "--out-dir", str(out2), "--seed", "99"]
    ) == 0
    a = json.loads((out1 / "measurements.json").read_text())
    b = json.loads((out2 / "measurements.json").read_text())
    assert a["values"] != b["values"]


def test_infinite_shots_flag(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "exact"
    assert main(
        [
            "simulate",
            "--config", str(config),
            "--out-dir", str(out),
            "--infinite-shots",
        ]
    ) == 0
    doc = json.loads((out / "measurements.json").read_text())
    assert doc["shots"] is None
    eps = np.asarray(doc["eps"])
    # exact levels: (s + 2*floor(eta*s)) / s for eta = 0, 1, 2
    for s in range(1, 6):
        np.testing.assert_allclose(eps[s - 1], [1.0, 3.0, 5.0])
