import dataclasses

import pytest

from nearcurve.config import SCHEMA, ExperimentConfig, parse_config_text
from nearcurve.errors import ConfigError

MINIMAL = "curve = parabola\n"


def test_defaults_and_parsing():
    cfg = parse_config_text(
        """
        # an experiment
        curve = veronese:3
        mode = count
        B = 0.1,0.9
        theta.lambda = 0.5
        theta.gamma = 0.25,0.75
        c = 0.5
        psi_list = 0.1,0.3
        Q_list = 256,512
        seed = 11
        output_dir = results
        scaling.svg = true
        """
    )
    assert cfg.curve == "veronese:3"
    assert cfg.mode == "count"
    assert cfg.B == (0.1, 0.9)
    assert cfg.theta_lambda == 0.5
    assert cfg.theta_gamma == (0.25, 0.75)
    assert cfg.psi_list == (0.1, 0.3)
    assert cfg.Q_list == (256, 512)
    assert cfg.seed == 11
    assert cfg.scaling_svg is True
    assert cfg.qnd_alpha == pytest.approx(1.0 / 3.0)  # untouched default


def test_minimal_config():
    cfg = parse_config_text(MINIMAL)
    assert cfg.curve == "parabola"
    assert cfg.mode is None
    assert cfg.Q_list == (1024,)


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="pse_list"):
        parse_config_text(MINIMAL + "pse_list = 0.1\n")


def test_missing_required():
    with pytest.raises(ConfigError, match="curve"):
        parse_config_text("seed = 3\n")


def test_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text(MINIMAL + "seed = 1\nseed = 2\n")


def test_bad_types():
    with pytest.raises(ConfigError, match="seed"):
        parse_config_text(MINIMAL + "seed = soon\n")
    with pytest.raises(ConfigError, match="B"):
        parse_config_text(MINIMAL + "B = 1\n")
    with pytest.raises(ConfigError, match="scaling.svg"):
        parse_config_text(MINIMAL + "scaling.svg = maybe\n")


def test_bad_mode_and_lists():
    with pytest.raises(ConfigError, match="mode"):
        parse_config_text(MINIMAL + "mode = tally\n")
    with pytest.raises(ConfigError, match="ascending"):
        parse_config_text(MINIMAL + "Q_list = 512,256\n")
    with pytest.raises(ConfigError, match="repeat"):
        parse_config_text(MINIMAL + "psi_list = 0.6,0.4,0.5,0.50,0.3\n")
    assert parse_config_text(MINIMAL + "psi_list = 0.6,0.4\n").psi_list == (0.6, 0.4)  # unsorted is fine
    with pytest.raises(ConfigError, match="nonempty"):
        parse_config_text(MINIMAL + "B = 0.9,0.1\n")


@pytest.mark.parametrize("key", ["Q_list", "psi_list"])
@pytest.mark.parametrize("value", ["", " , ", ","])
def test_empty_lists_are_rejected(key, value):
    with pytest.raises(ConfigError, match=f"{key}.*at least one value"):
        parse_config_text(MINIMAL + f"{key} = {value}\n")


@pytest.mark.parametrize("value", ["0", "-0.5", "nan", "inf", "-inf"])
def test_rho_scale_must_be_finite_and_positive(value):
    with pytest.raises(ConfigError, match="coverage.rho_scale.*finite and > 0"):
        parse_config_text(MINIMAL + f"coverage.rho_scale = {value}\n")
    assert parse_config_text(MINIMAL + "coverage.rho_scale = 1e-7\n").coverage_rho_scale == 1e-7


@pytest.mark.parametrize("key", ["grid.points", "qnd.samples", "identities.draws"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_counts_below_one_are_rejected(key, value):
    with pytest.raises(ConfigError, match=f"{key}.*>= 1"):
        parse_config_text(MINIMAL + f"{key} = {value}\n")
    assert getattr(parse_config_text(MINIMAL + f"{key} = 1\n"), key.replace(".", "_")) == 1


def test_missing_equals():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("curve parabola\n")


def test_every_schema_key_is_a_field():
    # the config is built from SCHEMA by replacing each dot of a key with an underscore
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert {key.replace(".", "_") for key in SCHEMA} == fields - {"raw"}
    cfg = parse_config_text(MINIMAL + "grid.points = 7\nqnd.eps = 0.1,0.2\n")
    assert set(cfg.raw) == set(SCHEMA)
    for key, value in cfg.raw.items():
        assert getattr(cfg, key.replace(".", "_")) is value
    assert (cfg.grid_points, cfg.qnd_eps) == (7, (0.1, 0.2))
