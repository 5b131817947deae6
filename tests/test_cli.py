"""Command-line interface tests: exit codes, output formats, determinism."""

import io

import pytest

from dronecov.cli import CSV_HEADER, _sweep_spec, build_parser, run
from dronecov.config import default_config, parse_config


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def parse_kv(text):
    return dict(line.split("=", 1) for line in text.splitlines()
                if "=" in line)


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
    assert invoke(["sweep", "--sweep-param", "ue_height",
                   "--sweep-grid", "1:2:0"])[0] == 2


def test_missing_config_file_exits_2(tmp_path):
    code, _, err = invoke(["coverage", "--method", "rayleigh",
                           "--config", str(tmp_path / "absent.cfg")])
    assert code == 2
    assert "cannot read config" in err


def test_malformed_config_exits_2(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[scenario]\nue_height_m = very high\n")
    code, _, err = invoke(["coverage", "--method", "rayleigh",
                           "--config", str(path)])
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


def test_quadrature_budget_out_of_spec_range_exits_2(tmp_path):
    # Accepted by the key's own reader but refused by QuadratureSpec: a
    # configuration error, not a failed computation.
    path = tmp_path / "panels.cfg"
    path.write_text("[quadrature]\nmax_panels = 4\n")
    code, out, err = invoke(["coverage", "--config", str(path)])
    assert code == 2
    assert out == ""
    assert "config error" in err
    assert "max_panels" in err and "line 2" in err


def test_unwritable_output_exits_1(tmp_path):
    target = str(tmp_path / "no" / "such" / "dir" / "out.txt")
    code, _, err = invoke(["coverage", "--method", "rayleigh",
                           "--output", target])
    assert code == 1
    assert "output failed" in err


# ---------------------------------------------------------------- coverage

def test_coverage_rayleigh_reference_output():
    code, out, err = invoke(["coverage", "--method", "rayleigh"])
    assert code == 0 and err == ""
    values = parse_kv(out)
    assert values["method"] == "rayleigh"
    assert float(values["probability"]) == 0.3076407243901217
    assert float(values["error_estimate"]) < 1e-6


def test_coverage_defaults_literal_matches_no_config():
    plain = invoke(["coverage", "--method", "rayleigh"])
    literal = invoke(["coverage", "--method", "rayleigh",
                      "--config", "defaults"])
    assert plain == literal


def test_coverage_output_file_equals_stdout(tmp_path):
    target = tmp_path / "cov.txt"
    code, out, _ = invoke(["coverage", "--method", "rayleigh"])
    code2, out2, _ = invoke(["coverage", "--method", "rayleigh",
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
    assert float(values["probability"]) == 0.34
    assert float(values["std_error"]) == 0.021184900282984576
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
             "rayleigh,monte-carlo", "--no-timing"] + list(extra))


@pytest.fixture()
def sweep_config(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text("[simulation]\nnum_drops = 300\nseed = 7\n")
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
        assert method in ("rayleigh", "monte-carlo")
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
         "--methods", "rayleigh", "--no-timing"])
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [(r[0], r[1]) for r in rows] == [
        ("50.0", "25.0"), ("50.0", "30.0"),
        ("60.0", "25.0"), ("60.0", "30.0")]


def test_sweep_descending_colon_grid(sweep_config):
    code, out, _ = invoke(
        ["sweep", "--config", sweep_config, "--sweep-param",
         "ue_height", "--sweep-grid", "60:40:-10", "--methods",
         "rayleigh", "--no-timing"])
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
                           "rayleigh"])
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
    cfg = parse_config("[quadrature]\nrel_tol = 1e-6\nmax_rounds = 5\n")
    parser = build_parser()
    for argv in (["sweep", "--preset", "figure3-ground"],
                 ["sweep", "--sweep-param", "ue_height",
                  "--sweep-grid", "60"]):
        spec = _sweep_spec(parser.parse_args(argv), cfg)
        assert spec.quadrature == cfg.to_quadrature()
        assert spec.quadrature.rel_tol == 1e-6
        assert spec.quadrature.max_rounds == 5


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
         "ue_height", "--sweep-grid=-5,-4", "--methods", "rayleigh",
         "--no-timing"])
    assert code == 1
    assert "rows failed" in err
    assert out.splitlines()[0] == CSV_HEADER


def test_sweep_partial_failure_keeps_exit_0(tmp_path):
    path = tmp_path / "mix.cfg"
    path.write_text("[simulation]\nnum_drops = 200\nseed = 1\n")
    code, out, err = invoke(
        ["sweep", "--config", str(path), "--sweep-param", "ue_height",
         "--sweep-grid=-5,60", "--methods", "rayleigh",
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
