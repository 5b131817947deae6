"""Command-line interface tests: exit codes, output formats, determinism."""

import io
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from dronecov.analytic import coverage_probability
from dronecov.cli import CSV_HEADER, _sweep_spec, build_parser, run
from dronecov.config import default_config, parse_config
from dronecov.errors import ConfigError
from dronecov.experiments import SweepAxis, SweepSpec

# Rayleigh fading on both link states.
UNIT_FADING = "[scenario]\nm_los = 1\nm_nlos = 1\n"


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def parse_kv(text):
    return dict(line.split("=", 1) for line in text.splitlines()
                if "=" in line)


@pytest.fixture()
def unit_fading_config(tmp_path):
    path = tmp_path / "unit.cfg"
    path.write_text(UNIT_FADING)
    return str(path)


@pytest.fixture()
def small_sim_config(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text("[simulation]\nnum_drops = 500\nseed = 11\n")
    return str(path)


# -------------------------------------------------------------- exit codes

def test_no_subcommand_prints_usage_and_exits_2():
    code, out, err = invoke([])
    assert code == 2
    assert "usage:" in err


def test_unknown_subcommand_exits_2():
    code, _, err = invoke(["frobnicate"])
    assert code == 2
    assert "error" in err


def test_unknown_flag_exits_2():
    code, _, err = invoke(["coverage", "--does-not-exist"])
    assert code == 2


def test_bad_option_values_exit_2():
    assert invoke(["simulate", "--workers", "0"])[0] == 2
    assert invoke(["simulate", "--seed", "-1"])[0] == 2
    assert invoke(["coverage", "--seed", "18446744073709551616"])[0] == 2
    assert invoke(["sweep", "--preset", "figure4", "--seed", "-1"])[0] == 2
    assert invoke(["sweep", "--sweep-param", "ue_height",
                   "--sweep-grid", "1:2:0"])[0] == 2


def test_missing_config_file_exits_2(tmp_path):
    code, _, err = invoke(["coverage",
                           "--config", str(tmp_path / "absent.cfg")])
    assert code == 2
    assert "cannot read config" in err


def test_malformed_config_exits_2(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[scenario]\nue_height_m = very high\n")
    code, _, err = invoke(["coverage", "--config", str(path)])
    assert code == 2
    assert "config error" in err and "line 2" in err


def test_computation_failure_exits_1(tmp_path):
    # A fading order past the derivative recursion's limit: the analytic
    # route refuses it.
    path = tmp_path / "fading.cfg"
    path.write_text("[scenario]\nm_los = 40\n")
    code, out, err = invoke(["coverage", "--config", str(path)])
    assert code == 1
    assert out == ""
    assert "computation failed" in err


def test_quadrature_value_out_of_spec_range_exits_2(tmp_path):
    # Accepted by the key's own reader but refused by QuadratureSpec: a
    # configuration error, not a failed computation.
    path = tmp_path / "trunc.cfg"
    path.write_text("[quadrature]\nouter_trunc_prob = 0.5\n")
    code, out, err = invoke(["coverage", "--config", str(path)])
    assert code == 2
    assert out == ""
    assert "config error" in err
    assert "outer_trunc_prob" in err and "line 2" in err


def test_unwritable_output_exits_1(tmp_path, unit_fading_config):
    target = str(tmp_path / "no" / "such" / "dir" / "out.txt")
    code, _, err = invoke(["coverage", "--config", unit_fading_config,
                           "--output", target])
    assert code == 1
    assert "output failed" in err


def test_removed_rayleigh_knobs_are_refused(unit_fading_config):
    # Rayleigh fading is m_los = m_nlos = 1 on the one analytic route; the
    # separate coverage flag and sweep method are usage errors.
    code, out, err = invoke(["coverage", "--method", "rayleigh",
                             "--config", unit_fading_config])
    assert code == 2 and out == ""
    assert "--method" in err
    code, out, err = invoke(["sweep", "--config", unit_fading_config,
                             "--sweep-param", "ue_height", "--sweep-grid",
                             "60", "--methods", "rayleigh"])
    assert code == 2 and out == ""
    assert "unknown method" in err
    with pytest.raises(ConfigError, match="unknown method"):
        SweepSpec(base=default_config().to_scenario(),
                  axes=(SweepAxis("ue_height", (60.0,)),),
                  methods=("rayleigh",))


# ---------------------------------------------------------------- coverage

def test_coverage_unit_fading_reference_output(unit_fading_config):
    code, out, err = invoke(["coverage", "--config", unit_fading_config])
    assert code == 0 and err == ""
    values = parse_kv(out)
    assert sorted(values) == ["error_estimate", "probability"]
    assert float(values["probability"]) == 0.3076407243901217
    assert float(values["error_estimate"]) < 1e-6


def test_module_run_prints_a_probability_and_exits_0():
    # python -m dronecov.cli runs the command, as the console script does.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "dronecov.cli", "coverage"],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert 0.0 < float(parse_kv(done.stdout)["probability"]) < 1.0


def test_coverage_defaults_literal_matches_no_config():
    plain = invoke(["coverage"])
    literal = invoke(["coverage", "--config", "defaults"])
    assert plain == literal


def test_coverage_output_file_equals_stdout(tmp_path, unit_fading_config):
    target = tmp_path / "cov.txt"
    code, out, _ = invoke(["coverage", "--config", unit_fading_config])
    code2, out2, _ = invoke(["coverage", "--config", unit_fading_config,
                             "--output", str(target)])
    assert code == code2 == 0
    assert out2 == ""
    assert target.read_text() == out


# ---------------------------------------------------------------- simulate

def test_simulate_reference_value_and_determinism(small_sim_config):
    first = invoke(["simulate", "--config", small_sim_config])
    second = invoke(["simulate", "--config", small_sim_config])
    assert first == second
    code, out, err = first
    assert code == 0 and err == ""
    values = parse_kv(out)
    assert float(values["probability"]) == 0.284
    assert float(values["std_error"]) == 0.020166506886419373
    assert values["num_drops"] == "500"
    assert "disk_radius" in values


def test_simulate_seed_flag_overrides_config(tmp_path,
                                             small_sim_config):
    other = tmp_path / "other-seed.cfg"
    other.write_text("[simulation]\nnum_drops = 500\nseed = 0\n")
    overridden = invoke(["simulate", "--config", str(other),
                         "--seed", "11"])
    baseline = invoke(["simulate", "--config", small_sim_config])
    assert overridden == baseline


def test_simulate_worker_count_does_not_change_output(small_sim_config):
    solo = invoke(["simulate", "--config", small_sim_config,
                   "--workers", "1"])
    split = invoke(["simulate", "--config", small_sim_config,
                    "--workers", "4"])
    assert solo == split


# ------------------------------------------------------------------- sweep

def sweep_args(config, extra=()):
    return (["sweep", "--config", config, "--sweep-param", "ue_height",
             "--sweep-grid", "40:60:10", "--methods",
             "analytic,monte-carlo", "--no-timing"] + list(extra))


@pytest.fixture()
def sweep_config(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(UNIT_FADING + "[simulation]\nnum_drops = 300\nseed = 7\n")
    return str(path)


def test_sweep_csv_structure(sweep_config):
    code, out, err = invoke(sweep_args(sweep_config))
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert CSV_HEADER == ("param_1,param_2,method,probability,"
                          "error_estimate,wall_time_s")
    assert len(lines) == 1 + 3 * 2
    for line in lines[1:]:
        param_1, param_2, method, prob, errest, wall = line.split(",")
        assert float(param_1) in (40.0, 50.0, 60.0)
        assert param_2 == ""
        assert method in ("analytic", "monte-carlo")
        assert 0.0 <= float(prob) <= 1.0
        assert float(errest) >= 0.0
        assert float(wall) == 0.0


def test_sweep_worker_counts_give_identical_bytes(sweep_config):
    solo = invoke(sweep_args(sweep_config, ["--workers", "1"]))
    quad = invoke(sweep_args(sweep_config, ["--workers", "4"]))
    assert solo == quad


def test_sweep_timing_column_populated(sweep_config):
    argv = sweep_args(sweep_config)
    argv.remove("--no-timing")
    code, out, _ = invoke(argv)
    assert code == 0
    walls = [float(line.rsplit(",", 1)[1])
             for line in out.splitlines()[1:]]
    assert all(w >= 0.0 for w in walls) and any(w > 0.0 for w in walls)


def test_sweep_two_axes_fills_second_column(sweep_config):
    code, out, _ = invoke(
        ["sweep", "--config", sweep_config,
         "--sweep-param", "ue_height", "--sweep-grid", "50,60",
         "--sweep-param", "bs_height", "--sweep-grid", "25,30",
         "--methods", "analytic", "--no-timing"])
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [(r[0], r[1]) for r in rows] == [
        ("50.0", "25.0"), ("50.0", "30.0"),
        ("60.0", "25.0"), ("60.0", "30.0")]


def test_sweep_descending_colon_grid(sweep_config):
    code, out, _ = invoke(
        ["sweep", "--config", sweep_config, "--sweep-param",
         "ue_height", "--sweep-grid", "60:40:-10", "--methods",
         "analytic", "--no-timing"])
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == [
        "60.0", "50.0", "40.0"]


def test_sweep_usage_conflicts_exit_2():
    both = invoke(["sweep", "--preset", "figure4", "--sweep-param",
                   "ue_height", "--sweep-grid", "1,2"])
    neither = invoke(["sweep"])
    unmatched = invoke(["sweep", "--sweep-param", "ue_height"])
    for code, _, err in (both, neither, unmatched):
        assert code == 2
        assert "config error" in err


def test_sweep_unknown_method_exits_2():
    code, _, err = invoke(["sweep", "--sweep-param", "ue_height",
                           "--sweep-grid", "60", "--methods", "magic"])
    assert code == 2
    assert "unknown method" in err


def test_sweep_unknown_parameter_exits_2():
    code, _, err = invoke(["sweep", "--sweep-param", "warp_factor",
                           "--sweep-grid", "1,2", "--methods",
                           "analytic"])
    assert code == 2
    assert "unknown sweep parameter" in err


def test_sweep_preset_honours_methods():
    parser = build_parser()
    cfg = default_config()
    chosen = parser.parse_args(["sweep", "--preset", "figure3-ground",
                                "--methods", "analytic"])
    assert _sweep_spec(chosen, cfg).methods == ("analytic",)
    preset = parser.parse_args(["sweep", "--preset", "figure3-ground"])
    assert _sweep_spec(preset, cfg).methods == ("analytic", "monte-carlo")
    axes = parser.parse_args(["sweep", "--sweep-param", "ue_height",
                              "--sweep-grid", "60"])
    assert _sweep_spec(axes, cfg).methods == ("analytic",)


def test_sweep_preset_honours_config_quadrature():
    cfg = parse_config("[quadrature]\nrel_tol = 1e-6\nabs_tol = 1e-9\n"
                       "[simulation]\nnum_drops = 300\nseed = 4\n"
                       "disk_radius_m = 900\n")
    parser = build_parser()
    for argv in (["sweep", "--preset", "figure3-ground"],
                 ["sweep", "--sweep-param", "ue_height",
                  "--sweep-grid", "60"]):
        spec = _sweep_spec(parser.parse_args(argv), cfg)
        assert spec.quadrature == cfg.quadrature
        assert spec.quadrature.rel_tol == 1e-6
        assert spec.quadrature.abs_tol == 1e-9
        assert spec.simulation == cfg.to_simulation()
        assert spec.simulation.disk_radius == 900.0


def test_sweep_integer_grid_keeps_integer_fields():
    code, out, err = invoke(["sweep", "--sweep-param", "channel.m_los",
                             "--sweep-grid", "1,2,3", "--no-timing"])
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.splitlines()[1:]]
    scn = default_config().to_scenario()
    assert [row[0] for row in rows] == ["1.0", "2.0", "3.0"]
    for m, row in zip((1, 2, 3), rows):
        direct = coverage_probability(
            replace(scn, channel=replace(scn.channel, m_los=m)))
        assert float(row[3]) == direct.probability


def test_every_command_applies_the_simulation_section(tmp_path):
    # simulate, a one-point Monte Carlo sweep and validate's coverage
    # check all run the configured drops, seed and disk radius.
    path = tmp_path / "disk.cfg"
    path.write_text("[scenario]\nue_height_m = 1.5\n[simulation]\n"
                    "num_drops = 200\nseed = 0\ndisk_radius_m = 300\n")
    code, out, _ = invoke(["simulate", "--config", str(path)])
    assert code == 0
    sim = parse_kv(out)
    assert sim["disk_radius"] == "300.0"
    code, out, _ = invoke(["sweep", "--config", str(path),
                           "--sweep-param", "ue_height", "--sweep-grid",
                           "1.5", "--methods", "monte-carlo",
                           "--no-timing"])
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert (row[3], row[4]) == (sim["probability"], sim["std_error"])
    _, out, _ = invoke(["validate", "--config", str(path)])
    p, se = float(sim["probability"]), float(sim["std_error"])
    assert f"simulated={p:.6f}+-{se:.6f}" in out


def test_sweep_preset_names_offered():
    parser = build_parser()
    text = parser.format_help()
    # Preset names are part of the sweep subcommand's own help.
    code, _, err = invoke(["sweep", "--preset", "nonsense"])
    assert code == 2
    for name in ("figure2", "figure3-aerial", "figure3-ground",
                 "figure4"):
        assert name in err


def test_sweep_all_rows_failed_exits_1(sweep_config):
    code, out, err = invoke(
        ["sweep", "--config", sweep_config, "--sweep-param",
         "ue_height", "--sweep-grid=-5,-4", "--methods", "analytic",
         "--no-timing"])
    assert code == 1
    assert "rows failed" in err
    assert out.splitlines()[0] == CSV_HEADER


def test_sweep_partial_failure_keeps_exit_0(tmp_path):
    path = tmp_path / "mix.cfg"
    path.write_text(UNIT_FADING + "[simulation]\nnum_drops = 200\nseed = 1\n")
    code, out, err = invoke(
        ["sweep", "--config", str(path), "--sweep-param", "ue_height",
         "--sweep-grid=-5,60", "--methods", "analytic",
         "--no-timing"])
    assert code == 0
    assert "1 of 2 rows failed" in err
    good = [line for line in out.splitlines()[1:]
            if line.startswith("60.0")]
    assert len(good) == 1


def test_sweep_output_file(tmp_path, sweep_config):
    target = tmp_path / "rows.csv"
    direct = invoke(sweep_args(sweep_config))
    to_file = invoke(sweep_args(sweep_config,
                                ["--output", str(target)]))
    assert to_file[0] == 0 and to_file[1] == ""
    assert target.read_text() == direct[1]


# ---------------------------------------------------------------- validate

def test_validate_reports_five_checks_and_exits_0(tmp_path):
    path = tmp_path / "val.cfg"
    path.write_text("[simulation]\nnum_drops = 2500\nseed = 2\n")
    code, out, err = invoke(["validate", "--config", str(path)])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len([l for l in lines if l.startswith("PASS ")]) == 5
    assert lines[-1] == "OK: 5 of 5 checks passed"
