"""Strictly validated experiment configuration.

A run is described by one JSON file with nested sections; unknown keys are
rejected and every diagnostic carries the offending field path. All physics
parameters have defaults matching the reference setup (4 qubits, N = 20
steps over T = 4, fold levels 0/1/1.5/2, 10240 shots, quadratic
extrapolation, radius-0 constraint subset); only the RNG seed has no
default and must come from the file or the command line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .jsonio import load_json, require_type
from .pauli import PauliString
from .schwinger import SchwingerParams, default_initial_state
from .simulator import EvolutionPlan, NoiseModel

DEFAULT_FOLD_LEVELS = (0.0, 1.0, 1.5, 2.0)
DEFAULT_SCAN_AXIS = (0.0, 0.5, 1.0, 1.5)


@dataclass(frozen=True)
class MitigationSettings:
    degree: int = 2
    radius: int = 0
    g_weight: float = 1.0

    def __post_init__(self) -> None:
        if int(self.degree) != self.degree or self.degree < 0:
            raise ValueError(f"degree must be a non-negative integer, got {self.degree}")
        if int(self.radius) != self.radius or self.radius < 0:
            raise ValueError(f"radius must be a non-negative integer, got {self.radius}")
        if not 0.0 <= float(self.g_weight) < math.inf:
            raise ValueError(f"g_weight must be finite and >= 0, got {self.g_weight}")
        object.__setattr__(self, "degree", int(self.degree))
        object.__setattr__(self, "radius", int(self.radius))
        object.__setattr__(self, "g_weight", float(self.g_weight))


@dataclass(frozen=True)
class ScanSettings:
    l0_values: tuple[float, ...] = DEFAULT_SCAN_AXIS
    mass_values: tuple[float, ...] = DEFAULT_SCAN_AXIS

    def __post_init__(self) -> None:
        for name in ("l0_values", "mass_values"):
            values = tuple(float(v) for v in getattr(self, name))
            if not values or not all(math.isfinite(v) for v in values):
                raise ValueError(f"{name} must be non-empty and finite, got {values}")
            object.__setattr__(self, name, values)


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    schwinger: SchwingerParams
    initial_state: str
    plan: EvolutionPlan
    noise: NoiseModel
    mitigation: MitigationSettings
    scan: ScanSettings
    hierarchy_seeds: tuple[PauliString, ...] | None
    out_dir: str


def _reject_unknown(section: dict, allowed: set[str], path: str) -> None:
    for key in section:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise ConfigError(f"{where}: unknown key")


def _expect(value, kinds, path: str):
    try:
        return require_type(value, kinds, path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _numbers(section: dict, key: str, default: tuple[float, ...], path: str) -> tuple:
    values = _expect(section.get(key, list(default)), list, path)
    return tuple(_expect(v, (int, float), f"{path}[{i}]") for i, v in enumerate(values))


def _build(path: str, factory, **kwargs):
    try:
        return factory(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_config(
    config_path: str | Path | None = None,
    *,
    seed: int | None = None,
    shots: int | None = None,
    infinite_shots: bool = False,
    out_dir: str | None = None,
    radius: int | None = None,
    degree: int | None = None,
) -> ExperimentConfig:
    """Load and validate a config file, applying command-line overrides."""
    raw: dict = {}
    if config_path is not None:
        try:
            raw = load_json(config_path)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {config_path}") from exc
        except ValueError as exc:
            raise ConfigError(f"{config_path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(
        raw,
        {
            "seed",
            "initial_state",
            "schwinger",
            "plan",
            "noise",
            "mitigation",
            "scan",
            "hierarchy",
            "out_dir",
        },
        "",
    )

    if seed is None:
        if "seed" not in raw:
            raise ConfigError("seed: missing required key (set it or pass --seed)")
        seed = _expect(raw["seed"], int, "seed")
    if seed < 0:
        raise ConfigError("seed: must be non-negative")

    section = _expect(raw.get("schwinger", {}), dict, "schwinger")
    _reject_unknown(
        section, {"n_qubits", "mass_ratio", "volume", "l0", "lambda"}, "schwinger"
    )
    schwinger = _build(
        "schwinger",
        SchwingerParams,
        n_qubits=_expect(section.get("n_qubits", 4), int, "schwinger.n_qubits"),
        mass_ratio=_expect(
            section.get("mass_ratio", 0.0), (int, float), "schwinger.mass_ratio"
        ),
        volume=_expect(section.get("volume", 30.0), (int, float), "schwinger.volume"),
        l0=_expect(section.get("l0", 0.0), (int, float), "schwinger.l0"),
        penalty=_expect(section.get("lambda", 100.0), (int, float), "schwinger.lambda"),
    )

    section = _expect(raw.get("plan", {}), dict, "plan")
    _reject_unknown(
        section,
        {"n_steps", "total_time", "trotter_order", "fold_levels", "shots"},
        "plan",
    )
    plan_shots = section.get("shots", 10240)
    if plan_shots is not None:
        plan_shots = _expect(plan_shots, int, "plan.shots")
    if shots is not None:
        plan_shots = shots
    if infinite_shots:
        plan_shots = None
    plan = _build(
        "plan",
        EvolutionPlan,
        n_steps=_expect(section.get("n_steps", 20), int, "plan.n_steps"),
        total_time=_expect(
            section.get("total_time", 4.0), (int, float), "plan.total_time"
        ),
        trotter_order=_expect(
            section.get("trotter_order", 1), int, "plan.trotter_order"
        ),
        fold_levels=_numbers(section, "fold_levels", DEFAULT_FOLD_LEVELS, "plan.fold_levels"),
        shots=plan_shots,
        rng_seed=seed,
    )

    section = _expect(raw.get("noise", {}), dict, "noise")
    _reject_unknown(section, {"depol_1q", "depol_2q", "readout_flip"}, "noise")
    noise = _build(
        "noise",
        NoiseModel,
        depol_1q=_expect(section.get("depol_1q", 0.0), (int, float), "noise.depol_1q"),
        depol_2q=_expect(section.get("depol_2q", 0.0), (int, float), "noise.depol_2q"),
        readout_flip=_expect(
            section.get("readout_flip", 0.0), (int, float), "noise.readout_flip"
        ),
    )

    section = _expect(raw.get("mitigation", {}), dict, "mitigation")
    _reject_unknown(section, {"degree", "radius", "g_weight"}, "mitigation")
    mitigation = _build(
        "mitigation",
        MitigationSettings,
        degree=_expect(section.get("degree", 2), int, "mitigation.degree")
        if degree is None
        else degree,
        radius=_expect(section.get("radius", 0), int, "mitigation.radius")
        if radius is None
        else radius,
        g_weight=_expect(
            section.get("g_weight", 1.0), (int, float), "mitigation.g_weight"
        ),
    )

    section = _expect(raw.get("scan", {}), dict, "scan")
    _reject_unknown(section, {"l0_values", "mass_values"}, "scan")
    scan = _build(
        "scan",
        ScanSettings,
        l0_values=_numbers(section, "l0_values", DEFAULT_SCAN_AXIS, "scan.l0_values"),
        mass_values=_numbers(section, "mass_values", DEFAULT_SCAN_AXIS, "scan.mass_values"),
    )

    section = _expect(raw.get("hierarchy", {}), dict, "hierarchy")
    _reject_unknown(section, {"seeds"}, "hierarchy")
    hierarchy_seeds = None
    if "seeds" in section:
        tokens = _expect(section["seeds"], list, "hierarchy.seeds")
        if not tokens:
            raise ConfigError("hierarchy.seeds: must be non-empty when given")
        parsed = []
        for i, token in enumerate(tokens):
            try:
                parsed.append(PauliString.parse(_expect(token, str, f"hierarchy.seeds[{i}]")))
            except ValueError as exc:
                raise ConfigError(f"hierarchy.seeds[{i}]: {exc}") from exc
        if len(set(parsed)) != len(parsed):
            raise ConfigError("hierarchy.seeds: entries must be distinct")
        hierarchy_seeds = tuple(parsed)

    initial_state = _expect(
        raw.get("initial_state", default_initial_state(schwinger.n_qubits)),
        str,
        "initial_state",
    )
    if len(initial_state) != schwinger.n_qubits or any(
        c not in "01" for c in initial_state
    ):
        raise ConfigError(
            f"initial_state: must be {schwinger.n_qubits} characters of 0/1"
        )

    resolved_out = out_dir if out_dir is not None else raw.get("out_dir", "out")
    resolved_out = _expect(resolved_out, str, "out_dir")

    return ExperimentConfig(
        seed=seed,
        schwinger=schwinger,
        initial_state=initial_state,
        plan=plan,
        noise=noise,
        mitigation=mitigation,
        scan=scan,
        hierarchy_seeds=hierarchy_seeds,
        out_dir=resolved_out,
    )
