import json
from pathlib import Path

import pytest

from bbgky_zne.config import load_config
from bbgky_zne.errors import ConfigError
from bbgky_zne.pauli import PauliString
from bbgky_zne.simulator import NoiseModel


def write(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_defaults_without_file():
    config = load_config(None, seed=3)
    assert config.seed == 3
    assert config.schwinger.n_qubits == 4
    assert config.schwinger.penalty == 100.0
    assert config.initial_state == "0101"
    assert config.plan.n_steps == 20
    assert config.plan.total_time == 4.0
    assert config.plan.fold_levels == (0.0, 1.0, 1.5, 2.0)
    assert config.plan.shots == 10240
    assert config.plan.rng_seed == 3
    assert config.noise == NoiseModel()
    assert config.mitigation.degree == 2
    assert config.mitigation.radius == 0
    assert config.scan.l0_values == (0.0, 0.5, 1.0, 1.5)
    assert config.hierarchy_seeds is None
    assert config.out_dir == "out"


def test_readme_default_config_block_loads_as_the_defaults(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("Defaults shown:\n\n```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "config.json"
    path.write_text(block)
    assert load_config(path) == load_config(None, seed=7)


def test_seed_is_required(tmp_path):
    with pytest.raises(ConfigError, match="seed"):
        load_config(write(tmp_path, {}))
    config = load_config(write(tmp_path, {}), seed=1)
    assert config.seed == 1


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(ConfigError, match="typo"):
        load_config(write(tmp_path, {"seed": 1, "typo": 2}))
    with pytest.raises(ConfigError, match="plan.dt"):
        load_config(write(tmp_path, {"seed": 1, "plan": {"dt": 0.1}}))
    with pytest.raises(ConfigError, match="noise.depol"):
        load_config(write(tmp_path, {"seed": 1, "noise": {"depol": 0.1}}))


def test_type_errors_rejected(tmp_path):
    with pytest.raises(ConfigError, match="n_steps"):
        load_config(write(tmp_path, {"seed": 1, "plan": {"n_steps": "20"}}))
    with pytest.raises(ConfigError, match="n_steps"):
        load_config(write(tmp_path, {"seed": 1, "plan": {"n_steps": True}}))
    with pytest.raises(ConfigError, match="mass_ratio"):
        load_config(write(tmp_path, {"seed": 1, "schwinger": {"mass_ratio": None}}))


def test_section_value_errors_become_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="schwinger"):
        load_config(write(tmp_path, {"seed": 1, "schwinger": {"n_qubits": 3}}))
    with pytest.raises(ConfigError, match="plan"):
        load_config(write(tmp_path, {"seed": 1, "plan": {"fold_levels": [1.0]}}))
    with pytest.raises(ConfigError, match="mitigation"):
        load_config(write(tmp_path, {"seed": 1, "mitigation": {"degree": -2}}))


def test_lambda_alias(tmp_path):
    config = load_config(write(tmp_path, {"seed": 1, "schwinger": {"lambda": 50}}))
    assert config.schwinger.penalty == 50.0


def test_overrides(tmp_path):
    path = write(tmp_path, {"seed": 1, "plan": {"shots": 64}, "out_dir": "somewhere"})
    config = load_config(
        path, seed=9, shots=128, out_dir="elsewhere", radius=2, degree=3
    )
    assert config.seed == 9
    assert config.plan.rng_seed == 9
    assert config.plan.shots == 128
    assert config.out_dir == "elsewhere"
    assert config.mitigation.radius == 2
    assert config.mitigation.degree == 3
    config = load_config(path, infinite_shots=True)
    assert config.plan.shots is None


def test_explicit_null_shots_means_infinite(tmp_path):
    config = load_config(write(tmp_path, {"seed": 1, "plan": {"shots": None}}))
    assert config.plan.shots is None


def test_hierarchy_seed_parsing(tmp_path):
    config = load_config(
        write(tmp_path, {"seed": 1, "hierarchy": {"seeds": ["Z1", "X1 X2"]}})
    )
    assert config.hierarchy_seeds == (
        PauliString.parse("Z1"),
        PauliString.parse("X1 X2"),
    )
    with pytest.raises(ConfigError, match="seeds"):
        load_config(write(tmp_path, {"seed": 1, "hierarchy": {"seeds": []}}))
    with pytest.raises(ConfigError, match="distinct"):
        load_config(
            write(tmp_path, {"seed": 1, "hierarchy": {"seeds": ["Z1", "Z1"]}})
        )
    with pytest.raises(ConfigError, match="seeds"):
        load_config(write(tmp_path, {"seed": 1, "hierarchy": {"seeds": ["bogus"]}}))


def test_initial_state_checked_against_size(tmp_path):
    config = load_config(write(tmp_path, {"seed": 1, "initial_state": "1100"}))
    assert config.initial_state == "1100"
    with pytest.raises(ConfigError, match="initial_state"):
        load_config(write(tmp_path, {"seed": 1, "initial_state": "01"}))
    with pytest.raises(ConfigError, match="initial_state"):
        load_config(write(tmp_path, {"seed": 1, "initial_state": "01x1"}))


def test_bad_json_and_missing_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(path)
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.json")
