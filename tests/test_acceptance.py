"""End-to-end quality gate for the package.

Each test states one externally meaningful property of the library —
internal identities, agreement between the independent evaluation
routes, qualitative features of the reference curves, and output
reproducibility — and prints a single PASS/FAIL line with the measured
quantity next to its tolerance.
"""

import io
import math
import time
from dataclasses import replace

import numpy as np

from dronecov.analytic import (QuadratureSpec, conditional_coverage,
                               coverage_probability, laplace_derivatives,
                               laplace_interference, mean_interference)
from dronecov.channel import (los_breakpoints, los_level_curve,
                              los_step_levels, los_step_width)
from dronecov.cli import run
from dronecov.config import builtin_environments, default_scenario
from dronecov.experiments import (SweepAxis, SweepSpec, figure2_check,
                                  figure3_preset, figure4_check,
                                  figure4_preset, sweep)
from dronecov.montecarlo import (SimulationSpec, _block_rng,
                                 _far_field_moments, compute_sir,
                                 default_disk_radius, estimate_coverage,
                                 sample_network)

BASE = default_scenario()
MEDIAN_R0 = math.sqrt(math.log(2.0) / (math.pi * BASE.bs_density))


def _report(summary: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {summary}: {detail}")


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_transform_derivatives_match_finite_differences():
    tol = 1e-4
    pairs = ((50.0, 1.0), (MEDIAN_R0, 0.5), (MEDIAN_R0, 2.0),
             (342.0, 1.0), (400.0, 1.0))
    worst = 0.0
    for r0, mult in pairs:
        s0 = mult / mean_interference(BASE, r0)
        vals = laplace_derivatives(BASE, r0, s0, 2)
        h1 = 1e-4 * s0
        fd1 = (laplace_interference(BASE, r0, s0 + h1)
               - laplace_interference(BASE, r0, s0 - h1)) / (2.0 * h1)
        h2 = 1e-3 * s0
        fd2 = (laplace_interference(BASE, r0, s0 + h2)
               - 2.0 * laplace_interference(BASE, r0, s0)
               + laplace_interference(BASE, r0, s0 - h2)) / (h2 * h2)
        worst = max(worst, abs(fd1 - vals[1]) / abs(vals[1]),
                    abs(fd2 - vals[2]) / abs(vals[2]))
    _report("transform derivatives agree with central differences",
            worst <= tol,
            f"max rel dev {worst:.3g} over 5 (r0, s) points (tol {tol:g})")
    assert worst <= tol


def test_analytic_coverage_matches_large_simulation():
    drops = 100_000
    start = time.perf_counter()
    res = coverage_probability(BASE)
    est = estimate_coverage(BASE, SimulationSpec(num_drops=drops, seed=0),
                            workers=1)
    wall = time.perf_counter() - start
    diff = abs(res.probability - est.probability)
    scale = math.hypot(max(est.std_error, 3.0 / drops),
                       res.error_estimate)
    ok = diff <= 3.0 * scale and diff <= 0.01 and wall <= 300.0
    _report("integral evaluation agrees with direct simulation", ok,
            f"|{res.probability:.5f} - {est.probability:.5f}| = "
            f"{diff:.5f} vs 3 sigma = {3.0 * scale:.5f} and 0.01; "
            f"wall {wall:.0f}s of 300s, single-threaded, {drops} drops")
    assert diff <= 3.0 * scale
    assert diff <= 0.01
    assert wall <= 300.0


def _abg_scenario(threshold, alpha=4.0):
    # One exponent and intercept for both link states, Rayleigh fading,
    # unit gains and equal heights: the Andrews-Baccelli-Ganti setting.
    return replace(
        BASE, bs_height=30.0, ue_height=30.0, sir_threshold=threshold,
        channel=replace(BASE.channel, alpha_los=alpha, alpha_nlos=alpha,
                        intercept_nlos=BASE.channel.intercept_los,
                        m_los=1, m_nlos=1),
        pattern=replace(BASE.pattern, gain_main=1.0, gain_side=1.0))


def _abg_coverage(threshold):
    # Andrews, Baccelli, Ganti, IEEE Trans. Commun. 59(11), 2011, at
    # path-loss exponent 4 without noise.
    root = math.sqrt(threshold)
    return 1.0 / (1.0 + root * (0.5 * math.pi - math.atan(1.0 / root)))


def test_analytic_coverage_matches_closed_form_oracle():
    lines = []
    ok = True
    for threshold in (0.3, 1.0):
        res = coverage_probability(_abg_scenario(threshold))
        dev = abs(res.probability - _abg_coverage(threshold))
        ok = ok and dev <= res.error_estimate
        lines.append(f"T={threshold:g}: {dev:.3g} vs {res.error_estimate:.3g}")
    _report("integral evaluation matches the Andrews-Baccelli-Ganti closed "
            "form within its error estimate", ok, "; ".join(lines))
    assert ok


def test_simulation_matches_closed_form_oracle():
    drops = 20_000
    exact = _abg_coverage(1.0)
    est = estimate_coverage(_abg_scenario(1.0),
                            SimulationSpec(num_drops=drops, seed=0))
    sigma = math.sqrt(exact * (1.0 - exact) / drops)
    dev = abs(est.probability - exact) / sigma
    _report("direct simulation matches the Andrews-Baccelli-Ganti closed "
            "form", dev <= 4.0,
            f"|{est.probability:.5f} - {exact:.5f}| = {dev:.2f} binomial "
            f"sigma of 4, {drops} drops")
    assert dev <= 4.0


def test_slowly_decaying_aerial_rows_agree_across_routes():
    # figure3-aerial rows (user at 60 m, tilt 15 degrees) whose
    # line-of-sight level barely decays or decays late: the analytic route
    # sums their tails in closed form, the simulation adds the far-field
    # mean from the same tail sums.
    drops = 4000
    envs = dict(builtin_environments())
    base = figure3_preset("aerial").base
    ok = True
    lines = []
    for bs_height, name in ((30.0, "suburban"), (60.0, "suburban"),
                            (80.0, "urban")):
        scn = replace(base, bs_height=bs_height, env=envs[name],
                      pattern=replace(base.pattern, downtilt_deg=15.0))
        res = coverage_probability(scn)
        est = estimate_coverage(scn, SimulationSpec(num_drops=drops, seed=0))
        dev = abs(res.probability - est.probability)
        bound = res.error_estimate + 4.0 * est.std_error
        ok = ok and dev <= bound
        lines.append(f"{name} {bs_height:g} m: {dev:.3g} vs {bound:.3g}")
    _report("slowly decaying aerial rows agree within error_estimate + 4 "
            f"sigma at {drops} drops", ok, "; ".join(lines))
    assert ok


def test_error_estimate_bounds_distance_to_tight_run():
    tight = QuadratureSpec(rel_tol=1e-12)
    cases = {f"{h:g} m": replace(BASE, ue_height=h)
             for h in (1.5, 60.0, 150.0)}
    for alpha in (3.0, 4.0):
        for threshold in (0.3, 1.0):
            cases[f"alpha={alpha:g} T={threshold:g}"] = _abg_scenario(
                threshold, alpha)
    ok = True
    lines = []
    for label, scn in cases.items():
        res = coverage_probability(scn)
        dev = abs(res.probability
                  - coverage_probability(scn, tight).probability)
        ok = ok and dev <= res.error_estimate
        lines.append(f"{label}: {dev:.3g} vs {res.error_estimate:.3g}")
    _report("error estimate bounds the distance to a rel_tol=1e-12 run", ok,
            "; ".join(lines))
    assert ok


def test_conditional_coverage_matches_forced_state_simulation():
    drops = 20_000
    worst = 0.0
    lines = []
    for r0 in (50.0, 150.0, 400.0):
        for serving_los in (True, False):
            prob = conditional_coverage(BASE, r0, serving_los)
            est = estimate_coverage(
                BASE, SimulationSpec(num_drops=drops, seed=0,
                                     fixed_serving_distance=r0,
                                     force_serving_los=serving_los))
            dev = (abs(prob - est.probability)
                   / max(est.std_error, 3.0 / drops))
            worst = max(worst, dev)
            state = "direct" if serving_los else "blocked"
            lines.append(f"r0={r0:.0f} {state}: {dev:.2f}")
    _report("serving-state conditional coverage matches simulation",
            worst <= 3.0,
            f"max dev {worst:.2f} sigma over 6 cases ({'; '.join(lines)})")
    assert worst <= 3.0


def test_interference_transform_matches_empirical_average():
    from dronecov.montecarlo import laplace_empirical
    drops = 20_000
    s0 = 1.0 / mean_interference(BASE, MEDIAN_R0)
    s_values = np.array([0.25, 0.5, 1.0, 2.0, 4.0]) * s0
    sim = SimulationSpec(num_drops=drops, seed=0,
                         fixed_serving_distance=MEDIAN_R0)
    means, errs = laplace_empirical(BASE, sim, s_values)
    worst = 0.0
    for s, mean, err in zip(s_values, means, errs):
        exact = laplace_interference(BASE, MEDIAN_R0, float(s))
        worst = max(worst, abs(exact - mean) / max(err, 1.0 / drops))
    _report("interference transform matches the empirical average",
            worst <= 3.0,
            f"max dev {worst:.2f} sigma over 5 transform arguments")
    assert worst <= 3.0


def test_altitude_curves_cross_once_with_modest_altitude_peak():
    altitudes = (1.5, 5.0) + tuple(np.arange(10.0, 161.0, 10.0))
    spec = SweepSpec(
        base=BASE,
        axes=(SweepAxis("ue_height", altitudes),
              SweepAxis(("channel.m_los", "channel.m_nlos"),
                        ((1, 1), (3, 1)), labels=("m1-1", "m3-1"))),
        methods=("analytic",))
    report = figure2_check(sweep(spec, workers=4))
    crossings = report.details.get("crossings_m", [])
    _report("single-exponential curve crosses the mixed-fading curve "
            "once near 80 m, both peaking at modest altitude",
            report.status == "pass",
            f"status {report.status}; crossings {crossings}; "
            f"window [30, 150], band 80+-30")
    assert report.status == "pass", report.details
    assert len(crossings) == 1 and abs(crossings[0] - 80.0) <= 30.0


def test_sight_probability_steps_altitude_monotone_and_near_unity():
    env = BASE.env
    breaks = list(los_breakpoints(env, 2000.0))
    step = los_step_width(env)
    p_of = lambda r, h: float(los_level_curve(
        r, los_step_levels(env, 30.0, h, int(r / step)), step))
    # Value 1 everywhere before the first step.
    below = [p_of(r, 60.0) for r in (0.5, 0.5 * breaks[0],
                                     0.999 * breaks[0])]
    flat_units = all(p == 1.0 for p in below)
    # Constant between consecutive steps.
    piecewise = True
    for lo, hi in zip(breaks[:4], breaks[1:5]):
        vals = {p_of(lo + f * (hi - lo), 60.0) for f in (0.01, 0.5, 0.99)}
        piecewise &= len(vals) == 1
    # Non-decreasing in the user altitude at fixed range.
    heights = np.arange(10.0, 301.0, 10.0)
    curves = np.array([[p_of(r, h) for h in heights]
                       for r in (200.0, 500.0, 1000.0)])
    monotone = bool(np.all(np.diff(curves, axis=1) >= 0.0))
    ok = flat_units and piecewise and monotone
    _report("sight probability is unit before the first step, constant "
            "between steps, monotone in altitude", ok,
            f"first step {breaks[0]:.2f} m; flat={flat_units} "
            f"piecewise={piecewise} monotone={monotone}")
    assert ok


def test_transmit_power_cancels_in_coverage():
    tol = 1e-9
    factors = (0.1, 1.0, 10.0)
    scns = [replace(BASE, tx_power=BASE.tx_power * f) for f in factors]
    probs = [coverage_probability(s).probability for s in scns]
    rel = max(abs(p - probs[1]) / probs[1] for p in probs)
    drops = 500
    spec = SimulationSpec(num_drops=drops, seed=29,
                          disk_radius=default_disk_radius(BASE))
    outcomes = []
    for scn in scns:
        far = _far_field_moments(scn, spec.disk_radius)[0]
        covered = [compute_sir(sample_network(scn, spec,
                                              _block_rng(spec.seed, i)),
                               scn, far) > scn.sir_threshold
                   for i in range(drops)]
        outcomes.append(covered)
    identical = outcomes[0] == outcomes[1] == outcomes[2]
    ok = rel <= tol and identical
    _report("transmit power cancels from the interference ratio", ok,
            f"analytic rel spread {rel:.3g} (tol {tol:g}); per-drop "
            f"threshold outcomes identical over x0.1/x1/x10: {identical}")
    assert rel <= tol
    assert identical


def test_simulate_and_sweep_outputs_reproducible_across_workers(tmp_path):
    cfg = tmp_path / "det.cfg"
    cfg.write_text("[simulation]\nnum_drops = 400\nseed = 13\n")
    unit = tmp_path / "unit.cfg"
    unit.write_text("[scenario]\nm_los = 1\nm_nlos = 1\n"
                    "[simulation]\nnum_drops = 400\nseed = 13\n")
    sim = [_cli(["simulate", "--config", str(cfg), "--workers", w])
           for w in ("1", "4")]
    swp = [_cli(["sweep", "--config", str(unit), "--sweep-param",
                 "ue_height", "--sweep-grid", "40:60:10", "--methods",
                 "analytic,monte-carlo", "--no-timing", "--workers", w])
           for w in ("1", "4")]
    ok = sim[0] == sim[1] and swp[0] == swp[1]
    _report("simulation and sweep outputs are byte-identical across "
            "worker counts", ok,
            f"simulate equal={sim[0] == sim[1]}, "
            f"sweep equal={swp[0] == swp[1]}, workers 1 vs 4, seed 13")
    assert sim[0] == sim[1]
    assert swp[0] == swp[1]


def test_coverage_peak_altitude_stays_near_station_height():
    result = sweep(figure4_preset(), workers=4)
    report = figure4_check(result)
    bound = report.details["bound_m"]
    peaks = {label: info["peak_m"]
             for label, info in report.details.items()
             if isinstance(info, dict)}
    ok = report.status == "pass" and all(0.0 <= p <= bound
                                         for p in peaks.values())
    _report("best flight altitude stays within three station heights "
            "for every down-tilt", ok,
            f"status {report.status}; peaks {peaks} within "
            f"[0, {bound:.0f}] m")
    assert report.status == "pass", report.details
    assert all(0.0 <= p <= bound for p in peaks.values())
