"""Sweep engine, preset, qualitative-check and validation-matrix tests."""

import io
import math
from dataclasses import replace

import numpy as np
import pytest

from dronecov.analytic import coverage_probability
from dronecov.cli import write_csv
from dronecov.config import builtin_environments, default_scenario
from dronecov.errors import ConfigError
from dronecov.experiments import (CheckReport, SweepAxis, SweepResult,
                                  SweepRow, SweepSpec, crossing_points,
                                  figure2_check,
                                  figure2_preset, figure3_check,
                                  figure3_preset, figure4_check,
                                  figure4_preset, sweep, validate,
                                  validate_spec)
from dronecov.montecarlo import SimulationSpec

BASE = default_scenario()
# Rayleigh fading on both link states.
UNIT = replace(BASE, channel=replace(BASE.channel, m_los=1, m_nlos=1))


def mc_spec(axes, methods=("analytic", "monte-carlo"), drops=400, seed=3):
    return SweepSpec(base=UNIT, axes=axes, methods=methods,
                     simulation=SimulationSpec(drops, seed=seed))


# ------------------------------------------------------------- validation

def test_axis_rejects_empty_grid():
    with pytest.raises(ConfigError, match="at least one value"):
        SweepAxis("ue_height", ())


def test_axis_rejects_non_monotone_numeric_grid():
    with pytest.raises(ConfigError, match="strictly monotone"):
        SweepAxis("ue_height", (1.0, 3.0, 2.0))
    with pytest.raises(ConfigError, match="strictly monotone"):
        SweepAxis("ue_height", (1.0, 1.0))


def test_axis_descending_numeric_grid_allowed():
    axis = SweepAxis("ue_height", (60.0, 50.0, 40.0))
    assert axis.label(0) == 60.0


def test_axis_structured_values_need_labels():
    with pytest.raises(ConfigError, match="needs labels"):
        SweepAxis(("channel.m_los", "channel.m_nlos"), ((1, 1), (3, 1)))


def test_axis_label_rules():
    with pytest.raises(ConfigError, match="one to one"):
        SweepAxis("ue_height", (1.0, 2.0), labels=("a",))
    with pytest.raises(ConfigError, match="unique"):
        SweepAxis("ue_height", (1.0, 2.0), labels=("a", "a"))
    with pytest.raises(ConfigError, match="CSV-safe"):
        SweepAxis("ue_height", (1.0, 2.0), labels=("a", "b,c"))


def test_composite_axis_arity_checked():
    with pytest.raises(ConfigError, match="2-tuples"):
        SweepAxis(("a", "b"), ((1.0,),), labels=("x",))


def test_spec_rejects_bad_axes_and_methods():
    axis = SweepAxis("ue_height", (50.0,))
    with pytest.raises(ConfigError, match="one or two axes"):
        SweepSpec(base=BASE, axes=(axis,) * 3)
    with pytest.raises(ConfigError, match="at least one method"):
        SweepSpec(base=BASE, axes=(axis,), methods=())
    with pytest.raises(ConfigError, match="unknown method"):
        SweepSpec(base=BASE, axes=(axis,), methods=("magic",))
    with pytest.raises(ConfigError, match="duplicate"):
        SweepSpec(base=BASE, axes=(axis,),
                  methods=("analytic", "analytic"))
    with pytest.raises(ConfigError, match="serving station"):
        SweepSpec(base=BASE, axes=(axis,), simulation=SimulationSpec(
            10, fixed_serving_distance=50.0))


def test_unknown_parameter_path_fails_before_evaluation():
    for path in ("nope", "channel.nope", "ue_height.deeper"):
        spec = SweepSpec(base=BASE,
                         axes=(SweepAxis(path, (1.0, 2.0)),))
        with pytest.raises(ConfigError, match="unknown sweep parameter"):
            validate_spec(spec)
        with pytest.raises(ConfigError, match="unknown sweep parameter"):
            sweep(spec)


# ----------------------------------------------------------------- engine

def test_single_point_grid_gives_one_row_per_method():
    spec = mc_spec((SweepAxis("ue_height", (60.0,)),))
    result = sweep(spec)
    assert len(result.rows) == 2
    assert [row.method for row in result.rows] == ["analytic",
                                                   "monte-carlo"]
    for row in result.rows:
        assert row.ok
        assert 0.0 <= row.probability <= 1.0
        assert row.param_2 is None
        assert row.wall_time_s >= 0.0


def test_rows_come_back_in_grid_order():
    spec = SweepSpec(
        base=UNIT,
        axes=(SweepAxis("ue_height", (50.0, 60.0)),
              SweepAxis("bs_height", (25.0, 30.0))),
        methods=("analytic",))
    result = sweep(spec)
    assert [(row.param_1, row.param_2) for row in result.rows] == [
        (50.0, 25.0), (50.0, 30.0), (60.0, 25.0), (60.0, 30.0)]


def test_axis_application_matches_direct_evaluation():
    spec = SweepSpec(
        base=UNIT,
        axes=(SweepAxis(("ue_height", "bs_height"),
                        ((60.0, 30.0), (1.5, 25.0)),
                        labels=("air", "ground")),),
        methods=("analytic",))
    result = sweep(spec)
    for row, (ue, bs) in zip(result.rows, spec.axes[0].values):
        direct = coverage_probability(replace(UNIT, ue_height=ue,
                                              bs_height=bs),
                                      spec.quadrature)
        assert row.probability == direct.probability


def test_failures_recorded_per_row_without_aborting():
    axis = SweepAxis(("channel.m_los", "channel.m_nlos"),
                     ((3, 1), (100, 100)), labels=("m3-1", "m100-100"))
    spec = SweepSpec(base=BASE,
                     axes=(SweepAxis("ue_height", (60.0,)), axis),
                     methods=("analytic", "monte-carlo"),
                     simulation=SimulationSpec(300, seed=5))
    result = sweep(spec)
    assert len(result.rows) == 4
    failed = result.failures
    assert len(failed) == 1
    bad = failed[0]
    assert bad.method == "analytic" and bad.param_2 == "m100-100"
    assert "fading order" in bad.message
    assert math.isnan(bad.probability)
    # The heavy-fading Monte Carlo row still carries a value.
    mc = [row for row in result.rows
          if row.param_2 == "m100-100" and row.method == "monte-carlo"]
    assert mc[0].ok
    assert len(result.failures) == 1


def test_invalid_grid_value_recorded_not_raised():
    spec = SweepSpec(base=UNIT,
                     axes=(SweepAxis("ue_height", (-5.0, 60.0)),),
                     methods=("analytic",))
    result = sweep(spec)
    assert not result.rows[0].ok
    assert result.rows[1].ok


def test_worker_counts_give_identical_csv_bytes():
    spec = mc_spec((SweepAxis("ue_height", (40.0, 50.0, 60.0)),))
    outputs = []
    for workers in (1, 2):
        buf = io.StringIO()
        write_csv(sweep(spec, workers=workers), buf,
                  include_timing=False)
        outputs.append(buf.getvalue())
    assert outputs[0] == outputs[1]


def test_results_independent_of_axis_direction():
    up = sweep(mc_spec((SweepAxis("ue_height", (40.0, 60.0)),)))
    down = sweep(mc_spec((SweepAxis("ue_height", (60.0, 40.0)),)))
    key = lambda row: (row.param_1, row.method)
    flat = lambda res: {key(r): (r.probability, r.error_estimate)
                        for r in res.rows}
    assert flat(up) == flat(down)


def test_analytic_and_monte_carlo_rows_agree_on_shared_grid():
    spec = SweepSpec(base=BASE,
                     axes=(SweepAxis("ue_height", (40.0, 60.0, 80.0)),),
                     methods=("analytic", "monte-carlo"),
                     simulation=SimulationSpec(1000, seed=11))
    result = sweep(spec)
    by_point = {}
    for row in result.rows:
        assert row.ok
        by_point.setdefault(row.param_1, {})[row.method] = row
    for pair in by_point.values():
        a, m = pair["analytic"], pair["monte-carlo"]
        scale = math.hypot(max(m.error_estimate, 3.0 / 1000),
                           a.error_estimate)
        assert abs(a.probability - m.probability) <= 3.0 * scale


def test_curve_extraction_sorts_and_filters():
    spec = SweepSpec(base=UNIT,
                     axes=(SweepAxis("ue_height", (60.0, 50.0, 40.0)),),
                     methods=("analytic",))
    result = sweep(spec)
    x, p, err = result.curve("analytic")
    assert list(x) == [40.0, 50.0, 60.0]
    assert np.all(np.diff(p) < 0.0)
    assert np.all(err > 0.0)
    with pytest.raises(ConfigError, match="no successful rows"):
        result.curve("monte-carlo")


def test_single_point_sweep_hands_workers_to_monte_carlo():
    spec = mc_spec((SweepAxis("ue_height", (60.0,)),),
                   methods=("monte-carlo",))
    solo = sweep(spec, workers=1)
    split = sweep(spec, workers=2)
    assert solo.rows[0].probability == split.rows[0].probability


# ---------------------------------------------------------------- presets

def test_figure2_preset_structure():
    spec = figure2_preset()
    assert spec.grid_shape == (32, 3)
    assert len(spec.axes[1].values) == 3
    assert spec.axes[1].labels == ("m1-1", "m3-1", "m100-100")
    assert spec.axes[1].values == ((1, 1), (3, 1), (100, 100))
    assert spec.methods == ("analytic", "monte-carlo")
    alts = spec.axes[0].values
    assert alts[0] == 1.5 and alts[-1] == 300.0


def test_figure3_preset_structure():
    ground = figure3_preset("ground")
    aerial = figure3_preset("aerial")
    assert ground.base.ue_height == 1.5
    assert aerial.base.ue_height == 60.0
    assert aerial.simulation == SimulationSpec(20000, seed=0)
    assert ground.grid_shape == (15, 8)
    labels = ground.axes[1].labels
    assert len(labels) == 8
    for name, _ in builtin_environments():
        assert f"{name}-t15" in labels and f"{name}-t30" in labels
    with pytest.raises(ConfigError, match="ground"):
        figure3_preset("submarine")


def test_figure4_preset_structure():
    spec = figure4_preset()
    assert spec.methods == ("analytic",)
    assert spec.axes[1].parameter == "pattern.downtilt_deg"
    assert spec.axes[1].values == (10.0, 20.0, 30.0)
    assert spec.axes[0].values[-1] == 150.0


def test_presets_pass_path_validation():
    for spec in (figure2_preset(), figure3_preset("ground"),
                 figure3_preset("aerial"), figure4_preset()):
        validate_spec(spec)


# ------------------------------------------------------------ pure checks

def test_crossing_points_basics():
    x = [0.0, 1.0, 2.0, 3.0]
    assert crossing_points(x, [0.0, 1.0, 1.0, 0.0],
                           [0.5, 0.5, 1.5, 1.5]) == [0.5, 1.5]
    assert crossing_points(x, [1.0, 1.0, 1.0, 1.0],
                           [0.0, 0.0, 0.0, 0.0]) == []
    # Exact touch at a node counts once.
    assert crossing_points(x, [2.0, 0.0, -1.0, -2.0],
                           [1.0, 0.0, 0.0, 0.0]) == [1.0]


def synthetic_figure2(shift=0.0, wiggle=0.0, err=1e-8):
    xs = (1.5, 5.0) + tuple(np.arange(10.0, 161.0, 10.0))
    spec = SweepSpec(
        base=BASE,
        axes=(SweepAxis("ue_height", xs),
              SweepAxis(("channel.m_los", "channel.m_nlos"),
                        ((1, 1), (3, 1)), labels=("m1-1", "m3-1"))),
        methods=("analytic",))
    rows = []
    for x in xs:
        p3 = (0.74 + 0.06 * (x - 1.5) / 8.5 if x < 10.0
              else 0.80 * math.exp(-(x - 10.0) / 60.0))
        gap = 0.0005 * (80.0 + shift - x)
        p1 = p3 - gap + wiggle * math.sin(x / 7.0)
        rows.append(SweepRow(float(x), "m3-1", "analytic", p3, err, 0.0))
        rows.append(SweepRow(float(x), "m1-1", "analytic", p1, err, 0.0))
    return SweepResult(spec=spec, rows=tuple(rows))


def test_figure2_check_passes_on_reference_shape():
    report = figure2_check(synthetic_figure2())
    assert report.status == "pass"
    assert report.details["crossings_m"] == pytest.approx([80.0], abs=1.0)
    assert report.details["shape_m3-1"]["peak_m"] == 10.0


def test_figure2_check_rejects_multiple_crossings():
    report = figure2_check(synthetic_figure2(wiggle=0.02))
    assert report.status == "fail"
    assert "crossing" in report.details["reason"]


def test_figure2_check_rejects_displaced_crossing():
    report = figure2_check(synthetic_figure2(shift=45.0))
    assert report.status == "fail"
    assert report.details["reason"] == "crossing outside expected band"


def test_figure2_check_inconclusive_when_noise_swamps_gap():
    report = figure2_check(synthetic_figure2(err=0.05))
    assert report.status == "inconclusive"


def synthetic_plateau(tail_values, err=1e-4):
    env = dict(builtin_environments())["urban"]
    xs = tuple(np.arange(10.0, 10.0 * (4 + len(tail_values)) + 1, 10.0))
    spec = SweepSpec(
        base=BASE,
        axes=(SweepAxis("bs_height", xs),
              SweepAxis(("pattern.downtilt_deg", "env"),
                        ((15.0, env),), labels=("urban-t15",))),
        methods=("monte-carlo",))
    head = [0.5, 0.3, 0.15, 0.05]
    rows = tuple(
        SweepRow(float(x), "urban-t15", "monte-carlo", p, err, 0.0)
        for x, p in zip(xs, head + list(tail_values)))
    return SweepResult(spec=spec, rows=rows)


def test_figure3_check_detects_plateau():
    report = figure3_check(synthetic_plateau([0.0101, 0.0100, 0.0102,
                                              0.0101]),
                           "urban-t15")
    assert report.status == "pass"
    assert report.details["plateau_start_m"] == 50.0


def test_figure3_check_inconclusive_while_still_changing():
    report = figure3_check(synthetic_plateau([0.03, 0.02]), "urban-t15")
    assert report.status == "inconclusive"
    assert "still changing" in report.details["reason"]


def test_figure3_check_fails_on_slow_creep():
    tail = [0.05 - 0.0025 * k for k in range(1, 7)]
    report = figure3_check(synthetic_plateau(tail, err=5e-4),
                           "urban-t15")
    assert report.status == "fail"
    assert report.details["total_variation"] > report.details["allowed"]


def synthetic_figure4(peaks, last_is_peak=False):
    xs = (1.5, 5.0) + tuple(np.arange(10.0, 151.0, 10.0))
    spec = SweepSpec(
        base=BASE,
        axes=(SweepAxis("ue_height", xs),
              SweepAxis("pattern.downtilt_deg",
                        tuple(sorted(peaks)))),
        methods=("analytic",))
    rows = []
    for tilt in sorted(peaks):
        peak = xs[-1] if last_is_peak else peaks[tilt]
        for x in xs:
            p = math.exp(-abs(x - peak) / 40.0)
            rows.append(SweepRow(float(x), float(tilt), "analytic",
                                 p, 1e-8, 0.0))
    return SweepResult(spec=spec, rows=tuple(rows))


def test_figure4_check_passes_for_low_peaks():
    report = figure4_check(synthetic_figure4({10.0: 20.0, 20.0: 10.0,
                                              30.0: 5.0}))
    assert report.status == "pass"
    assert report.details["bound_m"] == 90.0


def test_figure4_check_flags_high_peak_as_inconclusive():
    report = figure4_check(synthetic_figure4({10.0: 120.0, 20.0: 10.0,
                                              30.0: 5.0}))
    assert report.status == "inconclusive"
    assert report.details["10.0"]["reason"] == ("peak candidates beyond "
                                                "bound")


def test_figure4_check_flags_boundary_peak():
    report = figure4_check(synthetic_figure4({10.0: 20.0},
                                             last_is_peak=True))
    assert report.status == "inconclusive"
    assert "boundary" in report.details["10.0"]["reason"]


def test_check_report_is_plain_data():
    report = CheckReport("anything", "pass", {"x": 1})
    assert (report.name, report.status, report.details) == (
        "anything", "pass", {"x": 1})


# ----------------------------------------------------- real plateau slice

def test_tall_base_station_slice_reaches_plateau():
    env = dict(builtin_environments())["urban"]
    spec = SweepSpec(
        base=replace(BASE, ue_height=60.0),
        axes=(SweepAxis("bs_height", (60.0, 80.0, 100.0, 120.0, 140.0)),
              SweepAxis(("pattern.downtilt_deg", "env"),
                        ((15.0, env),), labels=("urban-t15",))),
        methods=("monte-carlo",), simulation=SimulationSpec(4000, seed=17))
    report = figure3_check(sweep(spec), "urban-t15")
    assert report.status == "pass"
    assert report.details["plateau_start_m"] >= 100.0


# ------------------------------------------------------------- validation

def test_validation_matrix_passes_at_defaults():
    with pytest.raises(ConfigError, match="serving station"):
        validate(sim=SimulationSpec(10, force_serving_los=True))
    report = validate(sim=SimulationSpec(2500, seed=2))
    assert len(report.checks) == 5
    names = [check.name for check in report.checks]
    assert len(set(names)) == 5
    for check in report.checks:
        assert check.passed, (check.name, check.measured, check.detail)
        assert check.measured <= check.tolerance
    assert report.ok


def test_validation_records_a_pinned_distance_outside_the_disk():
    # The median serving distance (66.4 m) lies outside a 50 m disk, so
    # both conditioned simulations refuse; their rows say why.
    report = validate(sim=SimulationSpec(200, disk_radius=50.0))
    assert len(report.checks) == 5
    assert not report.ok
    refused = report.checks[3:]
    for check in refused:
        assert not check.passed
        assert math.isnan(check.measured)
        assert "sampling disk" in check.detail


def test_validation_is_internal_consistency_not_physics():
    # A physically wrong exponent still self-agrees across both engines.
    twisted = replace(BASE, channel=replace(BASE.channel,
                                            alpha_nlos=BASE.channel.alpha_los))
    report = validate(twisted, SimulationSpec(2500, seed=4))
    assert report.ok
