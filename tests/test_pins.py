"""Pins of the pipeline's outputs.

The simulation is element-wise ufunc arithmetic plus PCG64 draws, so its
files are pinned by SHA-256. Mitigated values pass through LAPACK, whose last
bits may differ between builds, so they are pinned by value, to 1e-12 of each
array's scale, in ``pins.json``. A change that moves them on purpose records
them again with ``PYTHONPATH=src python tests/test_pins.py`` and says by how
much they moved.
"""

import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from bbgky_zne.cli import main

PINS = Path(__file__).with_name("pins.json")
#: entry-wise deviation allowed, relative to the largest entry of the array
RTOL = 1e-12

CONFIG = {
    "seed": 11,
    "schwinger": {"n_qubits": 4, "mass_ratio": 0.5, "volume": 30.0, "l0": 0.5},
    "plan": {
        "n_steps": 5,
        "total_time": 1.0,
        "trotter_order": 1,
        "fold_levels": [0.0, 1.0, 2.0],
        "shots": 256,
    },
    "noise": {"depol_1q": 0.001, "depol_2q": 0.01, "readout_flip": 0.02},
    "mitigation": {"degree": 2, "radius": 1, "g_weight": 1.0},
    "scan": {"l0_values": [0.0, 0.5], "mass_values": [0.0, 0.3]},
}

# SHA-256 of ``simulate``'s files for CONFIG, at 256 and at infinite shots
SIMULATE_SHA256 = {
    256: {
        "measurements.json": "a4086dcb225c4ef60f7b33b47ca41a652dba82a1f9cf084178aeb1ce4b147c60",
        "measurements.csv": "e00a16e14a6103d565af4c3db8de03ad6e8d9801054dd3cf6ca2e268eac87ee0",
    },
    None: {
        "measurements.json": "5fc73dd0657f5ced2b99f9f989340f4c86d5d39c5f9b38196435b8deb44865d8",
        "measurements.csv": "a172d179d37781803471ca27c9bf5e7c93ff58f3f0337b9b3ae5985ca7a8dd0c",
    },
}


def _run(command: str, out: Path, *extra: str, shots: int | None = 256) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    config = out / "config.json"
    doc = json.loads(json.dumps(CONFIG))
    doc["plan"]["shots"] = shots
    config.write_text(json.dumps(doc))
    assert main([command, "--config", str(config), "--out-dir", str(out), *extra]) == 0
    return out


def _mitigated(work: Path) -> dict:
    run = _run("simulate", work / "run")
    fit = _run(
        "mitigate", work / "fit",
        "--measurements", str(run / "measurements.json"),
        "--subset", str(run / "subset.json"),
    )
    doc = json.loads((fit / "mitigated.json").read_text())
    return {
        label: {key: doc[label][key] for key in ("extrapolations", "std")}
        for label in ("zne", "bbgky")
    }


def _scan(work: Path) -> dict:
    out = _run("scan", work / "scan")
    with open(out / "scan.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    return {key: [float(row[key]) for row in rows] for key in ("L0", "dL0", "Lb", "dLb")}


def _assert_close(got, pinned, name: str) -> None:
    got, pinned = np.asarray(got, dtype=float), np.asarray(pinned, dtype=float)
    assert got.shape == pinned.shape, name
    worst = float(np.abs(got - pinned).max())
    assert worst <= RTOL * float(np.abs(pinned).max()), (name, worst)


@pytest.mark.parametrize("shots", [256, None], ids=["256-shots", "infinite-shots"])
def test_simulate_outputs_are_pinned(tmp_path, shots):
    out = _run("simulate", tmp_path, shots=shots)
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in SIMULATE_SHA256[shots]
    }
    assert digests == SIMULATE_SHA256[shots]


def test_mitigated_values_are_pinned(tmp_path):
    pinned = json.loads(PINS.read_text())["mitigate"]
    for label, arrays in _mitigated(tmp_path).items():
        for key, values in arrays.items():
            _assert_close(values, pinned[label][key], f"{label}.{key}")


def test_scan_values_are_pinned(tmp_path):
    pinned = json.loads(PINS.read_text())["scan"]
    for key, values in _scan(tmp_path).items():
        _assert_close(values, pinned[key], key)


def record(work: Path) -> None:
    """Write ``pins.json`` and print the simulate digests for this module."""
    PINS.write_text(
        json.dumps({"mitigate": _mitigated(work / "m"), "scan": _scan(work / "s")}, indent=1)
        + "\n"
    )
    for shots in SIMULATE_SHA256:
        out = _run("simulate", work / f"sim-{shots}", shots=shots)
        for name in SIMULATE_SHA256[shots]:
            print(shots, name, hashlib.sha256((out / name).read_bytes()).hexdigest())


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        record(Path(work))
