"""Configuration file parsing."""

import dataclasses

import pytest

from fragsim import (
    BinaryPowerLaw,
    FiniteAtomic,
    SimConfig,
    load_config,
    parse_config_text,
)
from fragsim.errors import ConfigError

FULL = """
# scenario description
measure = atomic; atoms = 1.0:0.6,0.4;0.5:0.9,0.1
t_end = 2.5
alpha = 0.0        # homogeneous
c = 0.25
eps = 0.001
obs_times = 0.5, 1.0, 2.5
max_fragments = 500
mass_floor = 1e-9
initial_mass = 1.0
seed = 7
replicas = 4
"""


def test_full_config():
    cfg = parse_config_text(FULL)
    law = cfg["law"]
    assert isinstance(law, FiniteAtomic)
    assert law.atoms == ((1.0, (0.6, 0.4)), (0.5, (0.9, 0.1)))
    assert cfg["t_end"] == 2.5
    assert cfg["alpha"] == 0.0
    assert cfg["c"] == 0.25
    assert cfg["eps"] == 0.001
    assert cfg["obs_times"] == (0.5, 1.0, 2.5)
    assert cfg["max_fragments"] == 500
    assert cfg["mass_floor"] == 1e-9
    assert cfg["initial_mass"] == 1.0
    assert cfg["seed"] == 7
    assert cfg["replicas"] == 4


def test_every_sim_config_field_but_law_parses_to_its_type():
    text = {float: ("0.5", 0.5), int: ("3", 3), tuple: ("0.25, 0.5", (0.25, 0.5))}
    names = []
    for field in dataclasses.fields(SimConfig):
        if field.name == "law":
            continue
        line, value = text[field.type]
        parsed = parse_config_text(f"{field.name} = {line}")[field.name]
        assert type(parsed) is field.type and parsed == value, field.name
        names.append(field.name)
    assert names == ["t_end", "alpha", "c", "eps", "obs_times",
                     "max_fragments", "mass_floor", "initial_mass"]


@pytest.mark.parametrize("key, kind", [
    ("event_budget", float), ("r", float), ("m_max", int), ("n", int),
    ("seed", int), ("replicas", int)])
def test_suite_and_cli_keys_parse_to_their_types(key, kind):
    assert type(parse_config_text(f"{key} = 7")[key]) is kind


def test_binary_measure_line():
    cfg = parse_config_text("measure = binary_power; a = 0.5\nt_end = 1")
    assert isinstance(cfg["law"], BinaryPowerLaw)
    assert cfg["t_end"] == 1.0


def test_comments_and_blanks_ignored():
    assert parse_config_text("\n   \n# only a comment\n") == {}
    assert parse_config_text("seed = 3 # trailing note")["seed"] == 3


def test_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("seed = 1\nseed = 2")
    with pytest.raises(ConfigError, match="line 3: unknown key 'whatever'"):
        parse_config_text("seed = 1\n\nwhatever = 2")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("t_end = fast")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("just words")
    with pytest.raises(ConfigError):
        parse_config_text("obs_times = 0.5, x")
    with pytest.raises(ConfigError, match="duplicate measure"):
        parse_config_text("measure = binary_power; a = 0.5\n"
                          "measure = binary_power; a = 0.3")
    with pytest.raises(ConfigError):
        parse_config_text("measure = binary_power; a = 1.5")


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(FULL, encoding="utf-8")
    direct = parse_config_text(FULL)
    loaded = load_config(path)
    assert loaded["law"].atoms == direct["law"].atoms
    del direct["law"], loaded["law"]
    assert loaded == direct
