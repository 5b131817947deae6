"""Config parsing, defaults, unit conversion and round-trip tests."""

import math

import pytest

from dronecov.channel import EnvironmentParams
from dronecov.config import (ConfigFile, ScenarioConfig,
                             builtin_environments, default_config,
                             default_scenario, parse_config,
                             serialize_config)
from dronecov.errors import ConfigError


def test_empty_config_gives_reference_defaults():
    cfg = parse_config("")
    assert cfg == ConfigFile()
    scn = cfg.to_scenario()
    assert scn.bs_density == 50e-6
    assert scn.bs_height == 30.0
    assert scn.ue_height == 60.0
    assert scn.tx_power == 10.0 ** -0.6
    assert scn.sir_threshold == 0.3
    assert scn.channel.alpha_los == 2.09
    assert scn.channel.alpha_nlos == 3.75
    assert scn.channel.intercept_los == 7.762471166286911e-05
    assert scn.channel.intercept_nlos == 0.0005128613839913648
    assert (scn.channel.m_los, scn.channel.m_nlos) == (3, 1)
    assert scn.env.built_fraction == 0.3
    assert scn.env.buildings_per_km2 == 500.0
    assert scn.env.height_scale == 15.0
    assert scn.pattern.beamwidth_deg == 40.0
    assert scn.pattern.downtilt_deg == 30.0
    assert (scn.pattern.gain_main, scn.pattern.gain_side) == (10.0, 0.5)


def test_density_and_decibel_conversions_applied_once():
    cfg = parse_config("[scenario]\n"
                       "bs_density_per_km2 = 10\n"
                       "tx_power_db = 0\n"
                       "intercept_los_db = -30\n")
    scn = cfg.to_scenario()
    assert scn.bs_density == 10e-6
    assert scn.tx_power == 1.0
    assert scn.channel.intercept_los == pytest.approx(1e-3, rel=1e-15)


def test_defaults_helpers_agree():
    assert default_config() == ConfigFile()
    assert default_scenario() == ConfigFile().to_scenario()


def test_round_trip_default_and_modified():
    for text in ("",
                 "[scenario]\nue_height_m = 1.5\nenvironment = suburban\n",
                 "[simulation]\nnum_drops = 123\nseed = 42\n"
                 "disk_radius_m = 2000.0\n",
                 "[quadrature]\nrel_tol = 1e-07\nabs_tol = 1e-10\n"):
        cfg = parse_config(text)
        assert parse_config(serialize_config(cfg)) == cfg


def test_builtin_environment_presets():
    names = [name for name, _ in builtin_environments()]
    assert names == ["suburban", "urban", "dense-urban", "highrise-urban"]
    table = dict(builtin_environments())
    assert table["urban"].built_fraction == 0.3
    assert table["urban"].buildings_per_km2 == 500.0
    assert table["urban"].height_scale == 15.0
    assert table["suburban"].height_scale == 8.0
    assert table["highrise-urban"].height_scale == 50.0
    assert table["dense-urban"].built_fraction == 0.5


def test_environment_selection_and_custom_definition():
    cfg = parse_config("[scenario]\nenvironment = dense-urban\n")
    assert cfg.to_scenario().env.built_fraction == 0.5
    custom = parse_config("[environment.campus]\n"
                          "built_fraction = 0.15\n"
                          "buildings_per_km2 = 120\n"
                          "height_scale_m = 6\n"
                          "[scenario]\nenvironment = campus\n")
    env = custom.to_scenario().env
    assert (env.built_fraction, env.buildings_per_km2,
            env.height_scale) == (0.15, 120.0, 6.0)
    assert parse_config(serialize_config(custom)) == custom


def test_overriding_builtin_environment():
    cfg = parse_config("[environment.urban]\nheight_scale_m = 25\n")
    assert cfg.environment("urban") == EnvironmentParams(0.3, 500.0, 25.0)
    assert cfg.to_scenario().env.height_scale == 25.0


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# leading comment\n\n[scenario]\n"
                       "# ue height\nue_height_m = 90\n")
    assert cfg.scenario.ue_height_m == 90.0


@pytest.mark.parametrize("text, fragment", [
    ("[scenario]\nwhatever = 1\n", "unknown key"),
    ("[nope]\nx = 1\n", "unknown section"),
    ("ue_height_m = 3\n", "before any"),
    ("[scenario]\nue_height_m\n", "key = value"),
    ("[scenario]\nue_height_m = \n", "key = value"),
    ("[scenario]\nue_height_m = tall\n", "bad value"),
    ("[scenario]\nue_height_m = -2\n", "must be positive"),
    ("[scenario]\nue_height_m = inf\n", "must be finite"),
    ("[scenario]\nm_los = 2.5\n", "must be an integer"),
    ("[scenario]\nm_los = 0\n", "at least 1"),
    ("[scenario]\nue_height_m = 1\nue_height_m = 2\n", "duplicate"),
    ("[scenario]\nenvironment = mars\n", "unknown environment"),
    ("[environment.x]\nbuilt_fraction = 0.5\n", "missing key"),
    ("[environment.]\nbuilt_fraction = 0.5\n", "needs a name"),
    ("[simulation]\nseed = -1\n", "64-bit"),
    ("[quadrature]\nouter_trunc_prob = 1.5\n", "(0, 0.1)"),
    ("[quadrature]\nrel_tol = -1e-9\n", "tolerances must be positive"),
    ("[quadrature]\nrel_tol = tight\n", "bad value"),
    ("[simulation]\nnum_drops = 2.5\n", "must be an integer"),
    ("[quadrature]\nmax_rounds = 5\n", "unknown key"),
    ("[quadrature]\nmax_panels = 4\n", "unknown key"),
    ("[quadrature]\nouter_trunc_prob = 0.5\n", "outer_trunc_prob"),
    ("[simulation]\nnum_drops = 0\n", "at least 1"),
    ("[simulation]\ndisk_radius_m = -5\n", "positive"),
    ("[environment.urban]\nheight_scale_m = 0\n", "height_scale"),
    ("[simulation]\nfixed_serving_distance = 5\n", "unknown key"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert fragment in str(info.value)


def test_out_of_range_fraction_names_key_and_line():
    text = ("[environment.bad]\n"
            "built_fraction = 1.5\n"
            "buildings_per_km2 = 100\n"
            "height_scale_m = 10\n")
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    message = str(info.value)
    assert "built_fraction" in message
    assert "line 2" in message
    with pytest.raises(ConfigError) as info:
        parse_config("[simulation]\nseed = 3\ndisk_radius_m = 0\n")
    message = str(info.value)
    assert "disk_radius_m" in message
    assert "line 3" in message


def test_scenario_config_is_plain_data():
    s = ScenarioConfig(ue_height_m=1.5)
    assert s.ue_height_m == 1.5
    assert s.environment == "urban"
    assert math.isclose(ConfigFile(scenario=s).to_scenario().ue_height, 1.5)


def test_simulation_overrides():
    cfg = parse_config("[simulation]\nnum_drops = 77\nseed = 5\n")
    sim = cfg.to_simulation()
    assert (sim.num_drops, sim.seed) == (77, 5)
    assert sim.disk_radius is None
    sim2 = cfg.to_simulation(seed=9)
    assert (sim2.num_drops, sim2.seed) == (77, 9)
    cfg3 = parse_config("[simulation]\ndisk_radius_m = 1500\n")
    assert cfg3.to_simulation().disk_radius == 1500.0


def test_quadrature_mapping():
    cfg = parse_config("[quadrature]\nrel_tol = 1e-06\nabs_tol = 1e-09\n"
                       "outer_trunc_prob = 1e-06\n")
    quad = cfg.quadrature
    assert quad.rel_tol == 1e-6
    assert quad.abs_tol == 1e-9
    assert quad.outer_trunc_prob == 1e-6
