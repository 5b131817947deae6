"""Unit tests for the analytic coverage evaluation."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from dronecov.analytic import (
    MAX_FADING_ORDER,
    CoverageResult,
    NetworkScenario,
    QuadratureSpec,
    conditional_coverage,
    coverage_probability,
    laplace_derivatives,
    laplace_interference,
    mean_interference,
    serving_distance_pdf,
)
import dronecov
import dronecov.analytic as analytic
from dronecov import (channel, cli, config, errors, experiments, montecarlo,
                      quadrature)
from dronecov.analytic import (_Field, _field_for, _link_rows, _row_coefs,
                               _scaled_attenuation_rows, _serving_coeff)
from dronecov.channel import (AntennaPattern, ChannelParams,
                              EnvironmentParams, _los_levels_exact,
                              los_breakpoints, los_level_curve,
                              path_gain_curve)
from dronecov.errors import CapabilityError, DomainError, QuadratureError
from dronecov.quadrature import (CHEB_NODES, build_edges, integrate_steps,
                                 kronrod_panels)

URBAN = EnvironmentParams(built_fraction=0.3, buildings_per_km2=500.0,
                          height_scale=15.0)
PATTERN = AntennaPattern(beamwidth_deg=40.0, downtilt_deg=30.0,
                         gain_main=10.0, gain_side=0.5)


def make_channel(m_los=3, m_nlos=1, alpha_los=2.09, alpha_nlos=3.75):
    return ChannelParams(alpha_los=alpha_los, alpha_nlos=alpha_nlos,
                         intercept_los=7.762471166286911e-05,
                         intercept_nlos=0.0005128613839913648,
                         m_los=m_los, m_nlos=m_nlos)


def make_scenario(ue_height=60.0, bs_height=30.0, m_los=3, m_nlos=1,
                  sir_threshold=0.3, tx_power=10 ** -0.6, pattern=PATTERN):
    return NetworkScenario(bs_density=50e-6, bs_height=bs_height,
                           ue_height=ue_height, tx_power=tx_power,
                           sir_threshold=sir_threshold,
                           channel=make_channel(m_los, m_nlos),
                           env=URBAN, pattern=pattern)


QUAD = QuadratureSpec()
SCN = make_scenario()
EPS = np.finfo(float).eps


# ------------------------------------------------------ serving distance pdf

def test_serving_pdf_normalizes():
    val, err = integrate.quad(lambda r: serving_distance_pdf(r, 50e-6),
                              0.0, 2e4)
    assert_allclose(val, 1.0, atol=1e-10)


def test_serving_pdf_closed_form():
    lam = 50e-6
    r = 123.0
    expect = 2.0 * math.pi * lam * r * math.exp(-lam * math.pi * r * r)
    assert_allclose(serving_distance_pdf(r, lam), expect, rtol=1e-15)
    arr = serving_distance_pdf(np.array([50.0, r]), lam)
    assert_allclose(arr[1], expect, rtol=1e-15)


def test_serving_pdf_rejects_bad_density():
    with pytest.raises(DomainError):
        serving_distance_pdf(100.0, 0.0)


# ---------------------------------------------- fading attenuation factor

def _upsilon_derivative(r, s, los, order):
    # Derivative of given order in s of upsilon, the attenuation exp(-s c
    # h) of one interferer at distance r averaged over its fading h, read
    # off the rows of _link_rows at unit area: row 0 is 1 - upsilon and
    # row j is s^j |upsilon^(j)| / j!, with signs alternating in j.
    rows = _link_rows(np.atleast_1d(_serving_coeff(SCN, r, los)), np.ones(1),
                      s, SCN.channel.fading_order(los), order)[:, 0]
    if order == 0:
        return 1.0 - rows[0]
    return (-1) ** order * math.factorial(order) * rows[order] / s ** order


def test_upsilon_matches_gamma_average():
    # Frozen from direct quadrature of exp(-s c x) against the unit-mean
    # gamma fading density.
    assert_allclose(_upsilon_derivative(100.0, 5e7, True, 0),
                    0.9711355674745177, rtol=1e-13)
    assert_allclose(_upsilon_derivative(100.0, 5e7, False, 0),
                    0.9999133581543015, rtol=1e-13)
    assert_allclose(_upsilon_derivative(250.0, 2e8, True, 0),
                    0.9815317721942038, rtol=1e-13)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("los", [True, False])
def test_upsilon_derivative_matches_finite_difference(order, los):
    # Chained check: each order against a five-point first difference of
    # the analytic order below it.  Differencing the value itself twice
    # would drown the nearly flat non-line-of-sight curve in rounding.
    s = 5e7
    h = 1e-3 * s
    grid = [_upsilon_derivative(120.0, s + k * h, los, order - 1)
            for k in (-2, -1, 1, 2)]
    fd = (grid[0] - 8 * grid[1] + 8 * grid[2] - grid[3]) / (12 * h)
    assert_allclose(_upsilon_derivative(120.0, s, los, order), fd,
                    rtol=5e-6)


# ------------------------------------------------------- Laplace transform

@pytest.mark.parametrize("m", [1, 3, 8, 32])
def test_scaled_upsilon_rows_are_negative_binomial_terms(m):
    x = np.concatenate([[0.0], np.logspace(-300.0, 5.0, 306)])
    rows = _scaled_attenuation_rows(x, m, 32)
    with np.errstate(divide="ignore"):
        lx, l1p = np.log(x), np.log1p(x)
    for j in range(1, 33):
        ref = math.comb(m + j - 1, j) * np.exp(j * lx - (m + j) * l1p)
        assert_allclose(rows[j - 1], ref, rtol=0.0, atol=1e-15)
    # Terms of one negative-binomial distribution: they sum to at most 1.
    assert np.all(rows.sum(axis=0) <= 1.0)


def test_laplace_at_zero_is_one():
    assert laplace_interference(SCN, 100.0, 0.0, QUAD) == 1.0


def test_laplace_reference_values():
    assert_allclose(laplace_interference(SCN, 100.0, 1e7, QUAD),
                    0.9522174330944531, rtol=1e-9)
    assert_allclose(laplace_interference(SCN, 100.0, 5e7, QUAD),
                    0.7833959770855619, rtol=1e-9)
    assert_allclose(laplace_interference(SCN, 100.0, 2e8, QUAD),
                    0.3804483090443559, rtol=1e-9)


def test_laplace_monotone_decreasing_in_s():
    vals = [laplace_interference(SCN, 100.0, s, QUAD)
            for s in (0.0, 1e6, 1e7, 1e8, 1e9)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)


def test_laplace_derivatives_match_finite_difference():
    # Central five-point stencil on the transform itself; the first two
    # derivative orders are compared at a relative 1e-6, well inside the
    # stencil's own truncation error.
    for s in (1e7, 5e7, 2e8):
        der = laplace_derivatives(SCN, 100.0, s, 2, QUAD)
        h = 2e-3 * s
        f = [laplace_interference(SCN, 100.0, s + k * h, QUAD)
             for k in (-2, -1, 0, 1, 2)]
        d1 = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * h)
        d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
        assert_allclose(der[0], f[2], rtol=1e-12)
        assert_allclose(der[1], d1, rtol=1e-6)
        assert_allclose(der[2], d2, rtol=1e-6)


def test_laplace_derivatives_completely_monotone():
    der = laplace_derivatives(SCN, 100.0, 5e7, 5, QUAD)
    for k, val in enumerate(der):
        assert (val > 0) == (k % 2 == 0)


def test_laplace_rejects_bad_arguments():
    with pytest.raises(DomainError):
        laplace_interference(SCN, -1.0, 1e7, QUAD)
    # No handover candidate lies past a serving distance beyond the
    # step-table cap.
    for refused in (lambda: laplace_interference(SCN, 4e7, 1e7, QUAD),
                    lambda: conditional_coverage(SCN, 4e7, True, QUAD),
                    lambda: mean_interference(SCN, 4e7, QUAD)):
        with pytest.raises(QuadratureError, match="step-table cap") as err:
            refused()
        assert err.value.diagnostics["r0"] == 4e7
    with pytest.raises(DomainError):
        laplace_interference(SCN, 100.0, -1e7, QUAD)
    with pytest.raises(DomainError):
        laplace_derivatives(SCN, 100.0, 1e7, -1, QUAD)


def test_laplace_deep_tail_is_suppressed():
    val = laplace_interference(SCN, 100.0, 1e14, QUAD)
    assert 0.0 <= val < 1e-30


# ------------------------------------------------------- mean interference

def test_mean_interference_reference_values():
    # Reference values from a run at abs_tol 1e-22 and rel_tol 1e-12.
    assert_allclose(mean_interference(SCN, 100.0, QUAD),
                    4.899678729246298e-09, rtol=1e-8)
    assert_allclose(mean_interference(SCN, 300.0, QUAD),
                    2.934168279856338e-09, rtol=1e-8)


def test_mean_interference_is_transform_slope_at_origin():
    # E[I] = -dL/ds at s = 0, approximated by (1 - L(h)) / h.
    mean = mean_interference(SCN, 100.0, QUAD)
    h = 1e-4 / mean
    slope = (1.0 - laplace_interference(SCN, 100.0, h, QUAD)) / h
    assert_allclose(mean, slope, rtol=1e-4)


def test_mean_interference_decreasing_in_serving_distance():
    vals = [mean_interference(SCN, r, QUAD) for r in (50.0, 100.0, 200.0)]
    assert vals[0] > vals[1] > vals[2]


# --------------------------------------------------- conditional coverage

def test_conditional_coverage_reference_values():
    assert_allclose(conditional_coverage(SCN, 50.0, True, QUAD),
                    0.4956602821645719, rtol=1e-9)
    assert_allclose(conditional_coverage(SCN, 150.0, True, QUAD),
                    0.00023692940174340805, rtol=1e-9)


def test_conditional_coverage_within_unit_interval():
    for r0 in (20.0, 50.0, 150.0, 400.0):
        for los in (True, False):
            p = conditional_coverage(SCN, r0, los, QUAD)
            assert 0.0 <= p <= 1.0


def test_conditional_coverage_nlos_serving_is_tiny_here():
    # A non-line-of-sight serving link at 150 m is ~40 dB weaker than the
    # line-of-sight interference field, so conditional coverage collapses.
    assert conditional_coverage(SCN, 150.0, False, QUAD) < 1e-100


# ------------------------------------------------------- coverage integral

def test_coverage_reference_value():
    res = coverage_probability(SCN, QUAD)
    assert isinstance(res, CoverageResult)
    assert_allclose(res.probability, 0.3399385620614568, rtol=1e-7)
    assert 0.0 < res.error_estimate < 1e-6


def test_coverage_reference_values_altitudes():
    assert_allclose(
        coverage_probability(make_scenario(ue_height=150.0), QUAD).probability,
        5.258709652239982e-05, rtol=1e-6)
    assert_allclose(
        coverage_probability(make_scenario(ue_height=1.5), QUAD).probability,
        0.7415834175331805, rtol=1e-7)


def test_coverage_equal_heights_converges():
    # Zero height gap makes the gain uniform, so the two tilts must agree.
    res30 = coverage_probability(make_scenario(ue_height=60.0, bs_height=60.0),
                                 QUAD)
    pat15 = AntennaPattern(beamwidth_deg=40.0, downtilt_deg=15.0,
                           gain_main=10.0, gain_side=0.5)
    res15 = coverage_probability(
        make_scenario(ue_height=60.0, bs_height=60.0, pattern=pat15), QUAD)
    assert_allclose(res30.probability, 0.24735522752667377, rtol=1e-7)
    assert_allclose(res15.probability, res30.probability, rtol=1e-9)


def test_coverage_work_repeats_from_fresh_caches():
    # The work counts are deterministic: two runs that each rebuild every
    # cached table do the same outer and inner quadrature and give the
    # same value.
    runs = []
    for _ in range(2):
        for cached in (_field_for, _los_levels_exact):
            cached.cache_clear()
        res = coverage_probability(SCN, QUAD)
        runs.append((res.probability, res.diagnostics["outer_evals"],
                     res.diagnostics["outer_panels"],
                     res.diagnostics["inner_evals"],
                     res.diagnostics["inner_panels"]))
    assert runs[0] == runs[1]
    assert runs[0][1] % 15 == 0  # 15 evaluations per panel evaluated
    assert runs[0][3] == CHEB_NODES * runs[0][4]
    assert runs[0][3:] == (21672, 903)


def test_coverage_reports_step_table_regime():
    # At 150 m the handovers read the line-of-sight table past its switch
    # at 512 steps, beyond which the levels follow the level law; a
    # ground user's table stays short enough that no switch is searched.
    for cached in (_field_for, _los_levels_exact):
        cached.cache_clear()
    diag = coverage_probability(make_scenario(ue_height=150.0),
                                QUAD).diagnostics
    assert diag["los_table_steps"] > 512
    assert diag["los_exact_steps"] == 512
    diag = coverage_probability(make_scenario(ue_height=1.5),
                                QUAD).diagnostics
    assert diag["los_table_steps"] <= 512
    assert diag["los_exact_steps"] == 4000


@pytest.mark.parametrize("ue_height, outer", [(60.0, (135, 7)),
                                              (150.0, (105, 6))])
def test_outer_work_is_pinned(ue_height, outer):
    # The outer driver bisects a failing panel when its error exceeds its
    # width's share of the tolerance; an equal share per panel refines more
    # at 150 m.
    res = coverage_probability(make_scenario(ue_height=ue_height), QUAD)
    assert (res.diagnostics["outer_evals"],
            res.diagnostics["outer_panels"]) == outer


def test_coverage_decreasing_in_threshold():
    probs = [coverage_probability(make_scenario(sir_threshold=t),
                                  QUAD).probability
             for t in (0.1, 0.3, 1.0)]
    assert probs[0] > probs[1] > probs[2]
    assert_allclose(probs[0], 0.7489271532328762, rtol=1e-7)
    assert_allclose(probs[2], 0.053987959528808346, rtol=1e-7)


def test_coverage_independent_of_tx_power():
    # Noise-free SIR: the common transmit power cancels exactly.
    base = coverage_probability(SCN, QUAD).probability
    for factor in (0.1, 10.0, 1000.0):
        other = coverage_probability(
            make_scenario(tx_power=factor * 10 ** -0.6), QUAD).probability
        assert_allclose(other, base, rtol=1e-9)


def _abg_rho(thr, alpha):
    # rho(T, alpha) = T^(2/alpha) int_{T^(-2/alpha)}^inf du / (1 + u^(alpha/2))
    # of Andrews, Baccelli and Ganti (IEEE Trans. Commun. 59(11), 2011).
    value, _ = integrate.quad(lambda u: 1.0 / (1.0 + u ** (0.5 * alpha)),
                              thr ** (-2.0 / alpha), math.inf,
                              epsabs=1e-14, epsrel=1e-13)
    return thr ** (2.0 / alpha) * value


@pytest.mark.parametrize("thr", [0.1, 0.3, 1.0, 3.0])
@pytest.mark.parametrize("alpha", [2.5, 3.0, 3.5, 4.0])
def test_unit_fading_coverage_matches_abg_oracle(alpha, thr):
    # One exponent and intercept for both states, unit fading orders
    # (Rayleigh), unit gains and equal heights: coverage without noise is
    # 1 / (1 + rho(T, alpha)) whatever the station density.
    scn = replace(
        make_scenario(ue_height=30.0, sir_threshold=thr,
                      pattern=replace(PATTERN, gain_main=1.0,
                                      gain_side=1.0)),
        channel=make_channel(1, 1, alpha_los=alpha, alpha_nlos=alpha))
    scn = replace(scn, channel=replace(
        scn.channel, intercept_nlos=scn.channel.intercept_los))
    rho = _abg_rho(thr, alpha)
    if alpha == 4.0:
        root = math.sqrt(thr)
        assert_allclose(rho, root * math.atan(root), rtol=1e-12)
    res = coverage_probability(scn, QUAD)
    assert abs(res.probability - 1.0 / (1.0 + rho)) <= res.error_estimate


@pytest.mark.xfail(strict=True, reason="the relaxed transform tolerance "
                   "holds the transform, not the order-m coverage sum")
def test_high_order_conditional_coverage_meets_tolerance():
    # Order 32 on both states at 60 m: the default tolerance should give
    # the value a far tighter one gives, but reads about 0.00994 against
    # 0.00780: where the handover relaxes its tolerance it keeps the
    # transform within abs_tol, not the coverage terms, which exceed the
    # transform by many orders of magnitude here.
    scn = make_scenario(ue_height=60.0, m_los=32, m_nlos=32)
    tight = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-16)
    assert abs(conditional_coverage(scn, 80.2, True, QUAD)
               - conditional_coverage(scn, 80.2, True, tight)) <= 1e-9


# ------------------------------------------------ inner transform rule

def _tight_rows(fld, r0, s, orders, diag):
    # The rows eta_scaled integrates, by G7/K15 panels on every
    # line-of-sight step, over the same range up to the same handover and
    # with the same closed-form tail beyond.  Each step panel is its own
    # integral, refined to rel_tol 1e-13, and the panel integrals are
    # added by math.fsum, so neither the tolerance nor the rounding of a
    # long sum reaches the bound under test.
    r_sight, r_end = diag["r_handover"], diag["r_linear"]
    k_sight = int(round(r_sight / fld.step))
    levels = fld.levels_upto(k_sight)[:k_sight]
    ml, mn = fld.scn.channel.m_los, fld.scn.channel.m_nlos

    def rows(r):
        cl, cn, area = fld.node_data(r)
        gl = _link_rows(cl, area, s, ml, orders)
        gn = _link_rows(cn, area, s, mn, orders)
        pl = np.where(r < r_sight, los_level_curve(r, levels, fld.step), 0.0)
        return pl * gl + (1.0 - pl) * gn

    far = r_sight * 1.25 ** np.arange(1, 200)
    pts = [*los_breakpoints(fld.scn.env, r_sight), *fld.switches,
           *far[far < r_end]]
    edges = build_edges(r0, r_end, pts)
    res = integrate_steps(lambda data, owner, weighted: rows(data[0]),
                          kronrod_panels(edges[:-1], edges[1:],
                                         np.arange(edges.size - 1)),
                          kronrod_panels, rel_tol=1e-13,
                          abs_tol=1e-6 * min(diag["quad_errors"])
                          / edges.size)
    vals = np.array([math.fsum(row) for row in res.values.T])
    vals += fld.handover(np.array([r0]), np.array([s]), orders)[2][0]
    vals[0] = -vals[0]
    vals[1::2] = -vals[1::2]
    return vals


@pytest.mark.parametrize("r0", [20.0, 66.4, 200.0])
@pytest.mark.parametrize("heights", [(30.0, 1.5), (30.0, 60.0),
                                     (30.0, 150.0), (60.0, 60.0)],
                         ids=["1.5m", "60m", "150m", "equal-heights"])
def test_eta_rows_match_tight_step_panels(heights, r0):
    bs_height, ue_height = heights
    scn = make_scenario(ue_height=ue_height, bs_height=bs_height)
    fld = _field_for(scn, QUAD)
    for los, orders in ((True, 2), (False, 0)):
        s = (scn.channel.fading_order(los) * scn.sir_threshold
             / _serving_coeff(scn, r0, los))
        t, diag = fld.eta_scaled(r0, s, orders)
        tight = _tight_rows(fld, r0, s, orders, diag)
        # Both sums round at a few units in the last place of the rows.
        assert np.all(np.abs(t - tight) <= np.array(diag["quad_errors"])
                      + 8.0 * np.finfo(float).eps * np.abs(tight))


@pytest.mark.parametrize("los", [True, False], ids=["los", "nlos"])
def test_eta_quad_errors_cover_rounding_at_altitude(los):
    # At 150 m and r0 = 200 m the non-line-of-sight transform log is about
    # -4644, and the rounding of its sums (two units in the last place)
    # exceeds its quadrature error; quad_errors carries a bound on it.
    scn = make_scenario(ue_height=150.0)
    fld = _field_for(scn, QUAD)
    r0, orders = 200.0, (2 if los else 0)
    s = (scn.channel.fading_order(los) * scn.sir_threshold
         / _serving_coeff(scn, r0, los))
    t, diag = fld.eta_scaled(r0, s, orders)
    tight = _tight_rows(fld, r0, s, orders, diag)
    assert np.all(np.abs(t - tight) <= np.array(diag["quad_errors"]))


def _float_power_coefficient(m, j):
    # The row coefficient as it was computed in floats.
    return math.perm(m + j - 1, j) / (math.factorial(j) * float(m) ** j)


def test_row_coefs_coefficient_exact_where_float_overflows():
    coef, q = _row_coefs(100, 99)[99]
    assert q == 99
    assert coef == float(Fraction(math.comb(198, 99), 100 ** 99))
    assert_allclose(coef, 2.275e-140, rtol=1e-3)
    # The float denominator overflows there, which zeroed the row.
    assert _float_power_coefficient(100, 99) == 0.0


def test_row_coefs_coefficient_matches_float_formula():
    # The integer ratio C(m+j-1, j) / m^j is rounded once; the float
    # formula rounds perm, j!, their product with m^j and the quotient, so
    # the two agree within 2 units in the last place, and exactly for
    # m = 1 and, up to row 14, m = 3 (the default channel's orders).
    for m in range(1, MAX_FADING_ORDER + 1):
        for j, (coef, q) in enumerate(_row_coefs(m, MAX_FADING_ORDER - 1)):
            assert q == max(j, 1)
            assert coef == float(Fraction(math.comb(m + j - 1, j), m ** j))
            old = 1.0 if j == 0 else _float_power_coefficient(m, j)
            if m == 1 or (m == 3 and j <= 14):
                assert coef == old
            assert abs(coef - old) <= 2.0 * np.spacing(old)


@pytest.mark.parametrize("ue_height", [1.5, 60.0])
@pytest.mark.parametrize("r0", [20.0, 66.4])
@pytest.mark.parametrize("los", [True, False], ids=["los", "nlos"])
def test_blocked_slack_is_its_tail_integral(ue_height, r0, los):
    # Past R each blocked row j is its power law 2 pi lam c_j y^q, off by
    # at most (1 + orders / m_N) c_j y^(q+1); the slack the handover
    # reports is that bound integrated from R on, for the largest row.
    scn = make_scenario(ue_height=ue_height)
    fld, ch = _field_for(scn, QUAD), scn.channel
    m = ch.fading_order(los)
    s = m * scn.sir_threshold / _serving_coeff(scn, r0, los)
    r_end, slack = (fld.handover(np.array([r0]), np.array([s]), m - 1)[i][0]
                    for i in (1, 5))
    g_far, r_gain = fld.far_gain
    assert r_end >= max(r0, r_gain)

    def row_slack(c, q):
        def f(r):
            y = s * scn.tx_power * g_far * path_gain_curve(
                r, False, scn.bs_height, scn.ue_height, ch)
            return fld.area * r * (1.0 + (m - 1) / ch.m_nlos) * c * y ** (
                q + 1)
        return integrate.quad(f, r_end, np.inf, epsabs=0.0, epsrel=1e-12,
                              limit=200)[0]

    expect = max(row_slack(c, q) for c, q in _row_coefs(ch.m_nlos, m - 1))
    assert_allclose(slack, expect, rtol=1e-9)


# ------------------------------------------------ batched inner transforms

SUBURBAN = EnvironmentParams(built_fraction=0.1, buildings_per_km2=750.0,
                             height_scale=8.0)
TILT15 = replace(PATTERN, downtilt_deg=15.0)


@pytest.mark.parametrize("env, los", [(URBAN, True), (URBAN, False),
                                     (SUBURBAN, False)],
                         ids=["urban-los", "urban-nlos", "suburban-nlos"])
def test_batched_eta_scaled_entries_equal_scalar_calls(env, los):
    # In the suburban field the line-of-sight level barely decays, so the
    # entries there relax their tolerance by the transform-log lower bound
    # and batch the longer handover searches.
    scn = replace(make_scenario(ue_height=60.0, bs_height=40.0,
                                pattern=TILT15), env=env)
    fld = _field_for(scn, QUAD)
    r0 = np.array([5.0, 60.0, 170.0, 340.0])
    m = scn.channel.fading_order(los)
    s = m * scn.sir_threshold / _serving_coeff(scn, r0, los)
    t, diag = fld.eta_scaled(r0, s, m - 1)
    for i in range(r0.size):
        # The same cut, panels and work; the sums agree to rounding.
        one, one_diag = fld.eta_scaled(r0[i], s[i], m - 1)
        assert_allclose(one, t[i], rtol=4 * EPS, atol=0.0)
        for key, value in one_diag.items():
            if key == "quad_errors":
                assert_allclose(value, diag[key][i], rtol=1e-6,
                                atol=8 * EPS * np.abs(one).max())
            else:
                np.testing.assert_array_equal(value, diag[key][i])
    if env is SUBURBAN:
        assert np.all(diag["los_tail_error"] > QUAD.abs_tol)


@pytest.mark.parametrize("ue_height", [1.5, 60.0, 150.0])
def test_batching_changes_no_result_or_work(monkeypatch, ue_height):
    # One serving distance per batch does the same inner work as the
    # default batches and gives the same probability.
    scn = make_scenario(ue_height=ue_height)
    runs = []
    for budget in (analytic._NODE_BUDGET, 1):
        monkeypatch.setattr(analytic, "_NODE_BUDGET", budget)
        _field_for.cache_clear()
        runs.append(coverage_probability(scn, QUAD))
    batched, single = runs
    assert abs(batched.probability - single.probability) <= 4.0 * EPS * (
        batched.probability)
    for key in ("inner_evals", "inner_panels", "skipped_terms"):
        assert batched.diagnostics[key] == single.diagnostics[key]


def test_inner_transforms_run_in_batches(monkeypatch):
    # integrate_rows takes its entries in batches of about _NODE_BUDGET
    # nodes, one integrate_steps call each.  At 60 m the outer integral
    # runs two rounds and the skip screen drops every blocked serving
    # link, so there is one integrate_rows call per round.  Only the
    # integrate_steps calls made inside integrate_rows count; the outer
    # integral's own call does not.
    calls = Counter()
    inside = 0
    rows_call, steps_call = _Field.integrate_rows, analytic.integrate_steps

    def counted_rows(*args, **kwargs):
        nonlocal inside
        calls["integrate_rows"] += 1
        inside += 1
        try:
            return rows_call(*args, **kwargs)
        finally:
            inside -= 1

    def counted_steps(*args, **kwargs):
        calls["integrate_steps"] += inside > 0
        return steps_call(*args, **kwargs)

    monkeypatch.setattr(_Field, "integrate_rows", counted_rows)
    monkeypatch.setattr(analytic, "integrate_steps", counted_steps)
    _field_for.cache_clear()
    res = coverage_probability(SCN, QUAD)
    assert calls["integrate_rows"] == 2
    assert 2 <= calls["integrate_steps"] <= calls["integrate_rows"] + (
        res.diagnostics["inner_evals"] // analytic._NODE_BUDGET)
    # Each round's transforms (75 and 60 of them, 21,672 nodes in all)
    # make one batch.
    assert res.diagnostics["inner_evals"] == 21672
    assert calls["integrate_steps"] == 2


def test_one_floor_pass_per_screen_and_one_tail_lookup_per_extension(
        monkeypatch):
    # At 60 m the outer integrand runs twice, with four skip screens.
    # Each screen's eta_floor pass also gives the handover its floor, so
    # there is no other pass; los_tail_sums is looked up once for each
    # extension of the handover candidates (four, per fresh field).
    calls = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for owner, name in ((_Field, "coverage_negligible"),
                        (_Field, "eta_floor"), (analytic, "los_tail_sums")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    _field_for.cache_clear()
    coverage_probability(SCN, QUAD)
    assert calls == {"coverage_negligible": 4, "eta_floor": 4,
                     "los_tail_sums": 4}


# --------------------------------------------- closed-form skip of terms

DENSE_URBAN = EnvironmentParams(built_fraction=0.5, buildings_per_km2=300.0,
                                height_scale=20.0)


@pytest.mark.parametrize("env", [URBAN, DENSE_URBAN],
                         ids=["urban", "dense-urban"])
@pytest.mark.parametrize("ue_height", [1.5, 60.0, 150.0])
def test_eta_floor_never_exceeds_transform_log(env, ue_height):
    # Unit fading orders give the smallest transform log magnitude, so
    # they are the sharpest check of a bound meant for any orders.
    fld = _field_for(replace(make_scenario(ue_height=ue_height, m_los=1,
                                           m_nlos=1), env=env), QUAD)
    for r0 in (5.0, 60.0, 170.0, 340.0):
        for s in (1e6, 1e8, 1e10, 1e12):
            t, _ = fld.eta_scaled(r0, s, 0)
            floor = fld.eta_floor(r0, s)
            assert 0.0 < floor <= -t[0]
            # The scalar screen never hides a bound that clears its need.
            assert fld.eta_floor(r0, s, need=0.5 * floor) == floor


@pytest.mark.parametrize("ue_height", [1.5, 60.0, 150.0])
def test_two_argument_floor_pass_equals_two_calls(ue_height):
    # One pass at s / 2 and at s gives, bit for bit, what a call at each
    # gives, with or without the skip screen's need on the s / 2 floor,
    # which only zeroes the entries it rules out.  The last serving
    # distance lies past the floor's step intervals.
    scn = make_scenario(ue_height=ue_height)
    fld = _field_for(scn, QUAD)
    r0 = np.array([5.0, 60.0, 170.0, 340.0, 700.0, 1e6])
    s = 3.0 * scn.sir_threshold / _serving_coeff(scn, r0, True)
    half, full = fld.eta_floor(r0, [0.5 * s, s])
    np.testing.assert_array_equal(half, fld.eta_floor(r0, 0.5 * s))
    np.testing.assert_array_equal(full, fld.eta_floor(r0, s))
    assert half[-1] == full[-1] == 0.0 and np.all(full[:-1] > half[:-1])
    need = np.array([0.0, 1e9, 0.0, 1e9, 0.0, 0.0])
    gated, again = fld.eta_floor(r0, [0.5 * s, s], [need, 0.0 * need])
    np.testing.assert_array_equal(gated, np.where(need > 0.0, 0.0, half))
    np.testing.assert_array_equal(again, full)
    low, floor = fld.coverage_negligible(r0, s, 3, 1.0)
    np.testing.assert_array_equal(floor, full)


def test_coverage_skips_certified_terms_at_altitude(monkeypatch):
    scn = make_scenario(ue_height=150.0)
    res = coverage_probability(scn, QUAD)
    assert res.diagnostics["skipped_terms"] > 0
    assert_allclose(res.probability, 5.258709652239982e-05, rtol=1e-6)
    monkeypatch.setattr(_Field, "coverage_negligible",
                        lambda self, r0, s, *args: (np.zeros(np.shape(r0),
                                                             bool),
                                                    self.eta_floor(r0, s)))
    full = coverage_probability(scn, QUAD)
    assert full.diagnostics["skipped_terms"] == 0
    assert abs(res.probability - full.probability) <= QUAD.abs_tol
    assert res.error_estimate <= full.error_estimate + QUAD.abs_tol


@pytest.mark.parametrize("serving_los", [True, False])
def test_skipped_term_has_negligible_conditional_coverage(serving_los):
    scn = make_scenario(ue_height=150.0)
    fld = _field_for(scn, QUAD)
    r0 = 300.0
    m = scn.channel.fading_order(serving_los)
    s = m * scn.sir_threshold / _serving_coeff(scn, r0, serving_los)
    p_los = fld.level_at(r0)
    weight = p_los if serving_los else 1.0 - p_los
    assert fld.coverage_negligible(r0, s, m, weight)[0]
    assert conditional_coverage(scn, r0, serving_los, QUAD) <= QUAD.abs_tol


# ----------------------------------------------------------- domain errors

def test_fading_order_above_cap_rejected():
    scn = make_scenario(m_los=MAX_FADING_ORDER + 1)
    with pytest.raises(CapabilityError):
        coverage_probability(scn, QUAD)


def test_shallow_nlos_decay_rejected():
    ch = make_channel(alpha_nlos=1.9)
    scn = replace(SCN, channel=ch)
    with pytest.raises(DomainError):
        coverage_probability(scn, QUAD)


def test_shallow_los_decay_rejected():
    ch = make_channel(alpha_los=1.95)
    scn = replace(SCN, channel=ch)
    with pytest.raises(DomainError):
        coverage_probability(scn, QUAD)


def test_scenario_validation():
    with pytest.raises(DomainError):
        make_scenario(tx_power=0.0)
    with pytest.raises(DomainError):
        make_scenario(sir_threshold=-0.3)
    with pytest.raises(DomainError):
        replace(SCN, bs_density=0.0)


def test_quadrature_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureSpec(outer_trunc_prob=0.5)


def test_public_names_resolve_and_quadrature_spec_holds_accuracy_only():
    # Every name a module exports exists; the integration budget is a
    # constant of quadrature.py, not a field of the spec.
    for module in (dronecov, analytic, channel, cli, config, errors,
                   experiments, montecarlo, quadrature):
        names = getattr(module, "__all__", ())
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
    assert {"path_loss_curves", "path_gain_curve", "los_level_curve",
            "los_tail_sums", "antenna_gain_curve",
            "power_law_integral"} <= set(channel.__all__)
    removed = {"LinkGeometry", "path_loss", "los_probability", "antenna_gain",
               "far_field_mean"}
    assert not removed & (set(dronecov.__all__) | set(channel.__all__)
                          | set(montecarlo.__all__))
    assert [f.name for f in fields(QuadratureSpec)] == [
        "rel_tol", "abs_tol", "outer_trunc_prob"]
