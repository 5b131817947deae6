"""Unit tests for link-level primitives."""

from __future__ import annotations

import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dronecov.channel import (
    AntennaPattern,
    ChannelParams,
    EnvironmentParams,
    antenna_gain_curve,
    gain_switch_radii,
    los_breakpoints,
    los_exact_steps,
    los_level_curve,
    los_step_levels,
    los_step_width,
    main_lobe_interval,
    path_gain_curve,
    path_loss_curves,
)
import dronecov.channel as channel
from dronecov.channel import _los_levels_exact
from dronecov.analytic import conditional_coverage
from dronecov.config import builtin_environments, default_scenario
from dronecov.errors import DomainError, QuadratureError

URBAN = EnvironmentParams(built_fraction=0.3, buildings_per_km2=500.0,
                          height_scale=15.0)
CHANNEL = ChannelParams(alpha_los=2.09, alpha_nlos=3.75,
                        intercept_los=7.762471166286911e-05,
                        intercept_nlos=0.0005128613839913648,
                        m_los=3, m_nlos=1)
PATTERN = AntennaPattern(beamwidth_deg=40.0, downtilt_deg=30.0,
                         gain_main=10.0, gain_side=0.5)


# ---------------------------------------------------------------- path loss

def test_path_loss_reference_values():
    # 100 m on the ground between heights 30 and 60 m is a 3-D distance
    # of 104.4030650891055 m.
    for los, z in ((True, 4.686939090549629e-09),
                   (False, 1.3798291526491068e-11)):
        assert_allclose(path_gain_curve(100.0, los, 30.0, 60.0, CHANNEL), z,
                        rtol=1e-13)
        a, alpha = ((CHANNEL.intercept_los, CHANNEL.alpha_los) if los else
                    (CHANNEL.intercept_nlos, CHANNEL.alpha_nlos))
        assert_allclose(z, a * 104.4030650891055 ** -alpha, rtol=1e-13)


def test_path_loss_is_intercept_at_unit_distance():
    assert_allclose(path_gain_curve(1.0, True, 10.0, 10.0, CHANNEL),
                    CHANNEL.intercept_los, rtol=1e-15)


def test_path_loss_zero_distance_rejected():
    scn = default_scenario()
    scn = replace(scn, ue_height=scn.bs_height)
    with pytest.raises(DomainError,
                       match="path loss undefined at zero link distance"):
        conditional_coverage(scn, 0.0, True)


def test_path_loss_monotone_decreasing_in_distance():
    r = np.linspace(1.0, 500.0, 200)
    zl, zn = path_loss_curves(r, 30.0, 60.0, CHANNEL)
    assert np.all(np.diff(zl) < 0)
    assert np.all(np.diff(zn) < 0)


def test_path_loss_curves_match_scalar():
    r = np.array([10.0, 100.0, 330.0])
    zl, zn = path_loss_curves(r, 30.0, 60.0, CHANNEL)
    for i, ri in enumerate(r):
        for los, z in ((True, zl), (False, zn)):
            assert_allclose(path_gain_curve(float(ri), los, 30.0, 60.0,
                                            CHANNEL), z[i], rtol=1e-14)
    los = np.array([True, False, True])
    assert_allclose(path_gain_curve(r, los, 30.0, 60.0, CHANNEL),
                    np.where(los, zl, zn), rtol=1e-14)


# ------------------------------------------------------ line-of-sight tails

SUBURBAN = dict(builtin_environments())["suburban"]
TAIL_STARTS = np.array([1, 10, 100, 300, 600, 1000, 3000])


def _step_integrals(step, gap2, p, k):
    # int r (r^2 + gap^2)^(-p/2) dr over the steps k, written apart from
    # the kernel: u0^e (1 - (1 + du/u0)^e) / (p - 2), e = 1 - p/2.
    e = 1.0 - 0.5 * p
    u0 = (k * step) ** 2 + gap2
    return u0 ** e * -np.expm1(e * np.log1p((2 * k + 1) * step * step / u0)) \
        / (p - 2.0)


def _fsum_tails(env, bs_height, ue_height, p, levels, xs=TAIL_STARTS):
    # Line-of-sight tails beyond the cuts xs steps out by math.fsum of the
    # level-weighted steps up to the end of the given levels, a cut inside
    # a step taking that step's level from the cut on, and the level at
    # the end times the whole power-law tail beyond, which bounds the rest.
    step, gap2 = los_step_width(env), (bs_height - ue_height) ** 2
    k = np.arange(1, levels.size)
    terms = list(levels[1:] * _step_integrals(step, gap2, p, k))
    rest = levels[-1] * ((levels.size * step) ** 2 + gap2) ** (
        1.0 - 0.5 * p) / (p - 2.0)
    sums = []
    for x in xs:
        j, c = max(math.ceil(x), 1), x * step
        e, u0 = 1.0 - 0.5 * p, c * c + gap2
        part = [] if j == x else [levels[j - 1] * u0 ** e * -np.expm1(
            e * np.log1p((j * step - c) * (j * step + c) / u0)) / (p - 2.0)]
        sums.append(math.fsum(part + terms[j - 1:]))
    return np.array(sums), rest


@pytest.mark.parametrize("p", [2.09, 4.18, 3.75])
def test_los_tail_sums_match_exact_blocker_products_to_4000(p):
    # Oracle: the blocker products computed one by one, summed to 4,000
    # steps, where the level has fallen below e^-100.  Past the switch at
    # 512 steps the table follows the level law, good to 1e-12 of each
    # level, which the comparison allows for.
    levels = np.array([_blocker_product(URBAN, 30.0, 60.0, k)
                       for k in range(4000)])
    assert levels[-1] < math.exp(-100.0)
    sums, _, errs = channel.los_tail_sums(URBAN, 30.0, 60.0, [p],
                                          TAIL_STARTS * los_step_width(URBAN))
    exact, rest = _fsum_tails(URBAN, 30.0, 60.0, p, levels)
    assert np.all(np.abs(sums[0] - exact) <= errs[0] + rest + 1e-12 * exact)


def test_los_tail_sums_for_clear_equal_heights_are_power_law_tails():
    # Oracle: equal heights keep the geometric decay f^k; at 300 m the
    # clearance rounds to 1, so every level is 1 and each tail is the
    # power law's own, (K step)^(2-p) / (p - 2).
    step = los_step_width(URBAN)
    for p in (2.09, 4.18, 7.5):
        sums, _, errs = channel.los_tail_sums(URBAN, 300.0, 300.0, [p],
                                              TAIL_STARTS * step)
        exact = (TAIL_STARTS * step) ** (2.0 - p) / (p - 2.0)
        assert_allclose(sums[0], exact, rtol=1e-13)
        assert np.all(errs[0] <= 1e-12 * exact)


@pytest.mark.parametrize("env, bs_height, ue_height", [
    (URBAN, 60.0, 60.0), (URBAN, 30.0, 150.0), (SUBURBAN, 30.0, 60.0)],
    ids=["urban-equal-60", "urban-30-150", "suburban-30-60"])
def test_los_tail_sums_match_fsum_over_a_million_steps(env, bs_height,
                                                       ue_height):
    # Oracle: math.fsum over 10^6 steps of the table's own levels, the
    # geometric decay at equal heights and the level law past the switch
    # otherwise.  Urban 30 -> 150 m has decayed past e^-700 long before;
    # urban at equal 60 m and suburban 30 -> 60 m stay near 1 for
    # thousands of steps and fall below 1e-20 by 10^6.  Besides the
    # breakpoints, the cuts fall inside steps and, where the link does
    # not vanish there, at 0.
    levels = los_step_levels(env, bs_height, ue_height, 10 ** 6)
    assert levels[-1] < 1e-20
    xs = np.concatenate([TAIL_STARTS, [0.3, 99.5, 2999.75]
                         + ([0.0] if bs_height != ue_height else [])])
    for p in (2.09, 4.18):
        sums, _, errs = channel.los_tail_sums(
            env, bs_height, ue_height, [p], xs * los_step_width(env))
        exact, rest = _fsum_tails(env, bs_height, ue_height, p, levels, xs)
        assert np.all(np.abs(sums[0] - exact)
                      <= errs[0] + rest + 1e-14 * exact)


def test_los_tail_sums_do_not_depend_on_the_other_starts():
    # Each start is summed on its own, so a cached value never changes
    # with what else was asked for.
    cuts = TAIL_STARTS * los_step_width(URBAN)
    together = channel.los_tail_sums(URBAN, 30.0, 60.0, [2.09, 3.75], cuts)
    for i, c in enumerate(cuts):
        alone = channel.los_tail_sums(URBAN, 30.0, 60.0, [2.09, 3.75], [c])
        for a, b in zip(alone, together):
            assert np.array_equal(a[:, 0], b[:, i])


def test_los_tail_shares_add_up_to_the_power_law_tail():
    # Every link is either line-of-sight or blocked, so the two shares
    # make up the power law's closed form beyond each cut, on a
    # breakpoint, inside a step or at 0.
    step = los_step_width(URBAN)
    cuts = np.array([0.0, 0.4 * step, step, 99.5 * step, 3000 * step])
    p = np.array([2.09, 3.75, 7.5])
    sight, blocked, _ = channel.los_tail_sums(URBAN, 30.0, 60.0, p, cuts)
    whole = channel.power_law_integral(cuts * cuts + 900.0, np.inf, p[:, None])
    assert np.all((sight > 0.0) & (blocked > 0.0))
    assert_allclose(sight + blocked, whole, rtol=4e-16)


def test_los_tail_sums_refuse_negative_cuts_and_divergent_powers():
    for powers, cuts in (([3.75], [-1.0]), ([2.0], [100.0]),
                         ([1.5, 3.75], [100.0])):
        with pytest.raises(DomainError):
            channel.los_tail_sums(URBAN, 30.0, 60.0, powers, cuts)
    with pytest.raises(DomainError):
        channel.los_tail_sums(URBAN, 60.0, 60.0, [3.75], [0.0])


# ------------------------------------------------------------ line of sight

def _los_level(r, bs_height, ue_height, env):
    # The line-of-sight level at ground distance r, read by los_level_curve
    # from a table just long enough to hold r's step.
    step = los_step_width(env)
    levels = los_step_levels(env, bs_height, ue_height, int(r / step))
    return float(los_level_curve(r, levels, step))


def test_los_probability_one_below_first_breakpoint():
    step = los_step_width(URBAN)
    assert_allclose(step, 81.64965809277261, rtol=1e-14)
    for r in (0.0, 1.0, 40.0, step * 0.999):
        assert _los_level(r, 30.0, 60.0, URBAN) == 1.0


def test_los_probability_single_blocker_value():
    # One blocker at link height 45 m: 1 - exp(-45^2 / (2 * 15^2)).
    assert_allclose(_los_level(100.0, 30.0, 60.0, URBAN),
                    0.9888910034617577, rtol=1e-15)


def test_los_probability_two_blocker_values():
    assert_allclose(_los_level(170.0, 30.0, 60.0, URBAN),
                    0.9539716869104711, rtol=1e-14)
    assert_allclose(_los_level(200.0, 30.0, 1.5, URBAN),
                    0.10473910295510545, rtol=1e-14)


def test_los_probability_constant_between_breakpoints():
    bps = los_breakpoints(URBAN, 1000.0)
    edges = np.concatenate([[0.0], bps, [1000.0]])
    for lo, hi in zip(edges[:-1], edges[1:]):
        samples = np.linspace(lo + 1e-6 * (hi - lo), hi - 1e-6 * (hi - lo), 7)
        vals = [_los_level(float(r), 30.0, 60.0, URBAN)
                for r in samples]
        assert max(vals) == min(vals)


def test_los_probability_monotone_in_user_height():
    heights = [1.5, 10.0, 30.0, 60.0, 120.0, 300.0]
    for r in (150.0, 400.0, 900.0):
        vals = [_los_level(r, 30.0, h, URBAN)
                for h in heights]
        assert np.all(np.diff(vals) >= 0.0)


def test_los_probability_nonincreasing_in_distance():
    rs = np.arange(10.0, 2000.0, 37.0)
    vals = [_los_level(float(r), 30.0, 60.0, URBAN)
            for r in rs]
    assert np.all(np.diff(vals) <= 1e-15)


def test_los_breakpoints_spacing():
    bps = los_breakpoints(URBAN, 500.0)
    step = los_step_width(URBAN)
    assert_allclose(bps, step * np.arange(1, 7), rtol=1e-14)
    assert los_breakpoints(URBAN, 0.0).size == 0
    assert los_breakpoints(URBAN, step * 0.5).size == 0


def test_los_step_levels_match_scalar_probability():
    levels = los_step_levels(URBAN, 30.0, 60.0, 12)
    step = los_step_width(URBAN)
    for k in range(13):
        r = (k + 0.5) * step
        assert_allclose(levels[k], _los_level(r, 30.0, 60.0, URBAN),
                        rtol=1e-14)


@pytest.mark.parametrize("name, env", builtin_environments())
def test_los_probability_reads_step_table_at_breakpoints(name, env):
    # Breakpoints are where a step index computed another way would pick
    # the neighbouring step; past the switch step the table follows the
    # Euler-Maclaurin level law.
    step = los_step_width(env)
    levels = los_step_levels(env, 30.0, 60.0, 5000)
    for r in los_breakpoints(env, 5000 * step):
        k = int(r / step)
        assert _los_level(r, 30.0, 60.0, env) == levels[k]
    # A table's entries do not depend on its length or on the order in
    # which tables were asked for.
    switch = los_exact_steps(env, 30.0, 60.0)
    for k in (1, 2, 77, switch - 1, switch, switch + 1, 4000, 4001, 4999):
        assert los_step_levels(env, 30.0, 60.0, k)[k] == levels[k]
        _los_levels_exact.cache_clear()
        assert los_step_levels(env, 30.0, 60.0, k)[k] == levels[k]
    _los_levels_exact.cache_clear()
    for k_max in (switch + 1, 3 * switch, 700, 5000):
        grown = los_step_levels(env, 30.0, 60.0, k_max)
    assert np.array_equal(grown, levels)


def test_exact_step_table_grows_without_rebuilding():
    # One table per link geometry, extended from its current length; every
    # entry is the blocker product np.prod gives for that entry alone.
    _los_levels_exact.cache_clear()
    for k_max in (3, 40, 17, 300):
        levels = los_step_levels(URBAN, 30.0, 60.0, k_max)
        assert levels.size == k_max + 1
    table = _los_levels_exact(URBAN, 30.0, 60.0)
    assert table.levels.size == 301
    assert _los_levels_exact.cache_info().misses == 1
    step = los_step_width(URBAN)
    for k in range(301):
        assert levels[k] == _blocker_product(URBAN, 30.0, 60.0, k)
    for k in (0, 1, 17, 299, 300):
        assert _los_level((k + 0.5) * step, 30.0, 60.0, URBAN) == levels[k]
    # The exact entries of a 2,048-step switch span about two million
    # blocker heights, which the table builds in many blocks.
    levels = los_step_levels(URBAN, 150.0, 1.5, 2048)
    assert los_exact_steps(URBAN, 150.0, 1.5) == 2048
    for k in range(1400, 2049):
        assert levels[k] == _blocker_product(URBAN, 150.0, 1.5, k)


def _blocker_product(env, bs_height, ue_height, k):
    h = bs_height + (np.arange(k) + 0.5) * (ue_height - bs_height) / k
    return np.prod(-np.expm1(-h * h / (2.0 * env.height_scale ** 2)))


def _log_blocker_product(env, bs_height, ue_height, k):
    h = bs_height + (np.arange(k) + 0.5) * (ue_height - bs_height) / k
    return float(np.sum(np.log(-np.expm1(-h * h / (2.0 * env.height_scale
                                                    ** 2)))))


GEOMETRIES = [(30.0, 1.5), (150.0, 1.5), (30.0, 60.0), (30.0, 150.0),
              (10.0, 300.0), (150.0, 60.0)]


def _fsum_log_level(env, bs_height, ue_height, k):
    # Exact log of the k-blocker product: math.fsum of the clearance logs,
    # each free of cancellation whether the clearance is near 0 or 1.
    h = bs_height + (np.arange(k) + 0.5) * (ue_height - bs_height) / k
    x = h * h / (2.0 * env.height_scale ** 2)
    return math.fsum(math.log1p(-math.exp(-v)) if v > math.log(2.0)
                     else math.log(-math.expm1(-v)) for v in x)


@pytest.mark.parametrize("heights", GEOMETRIES,
                         ids=[f"{a:g}-{b:g}" for a, b in GEOMETRIES])
@pytest.mark.parametrize("name, env", builtin_environments())
def test_level_law_matches_exact_log_product(name, env, heights):
    # Past the switch the table follows the level law; it must stay within
    # 1e-12 of the exact log-product wherever that product is a normal
    # double, and never increase, across the switch included, which the
    # constant-level tail majorant of the analytic route relies on.
    levels = los_step_levels(env, *heights, 10000)
    switch = los_exact_steps(env, *heights)
    assert switch in (512, 1024, 2048, 4000)
    assert levels[switch + 1] <= levels[switch]
    assert np.all(np.diff(levels) <= 0.0)
    for k in (switch + 1, 2 * switch, 4000, 4001, 10000):
        ln = _fsum_log_level(env, *heights, k)
        if ln < math.log(sys.float_info.min):
            continue
        assert abs(math.log(levels[k]) - ln) <= 1e-12 * max(1.0, abs(ln))


@pytest.mark.parametrize("ue_height", [60.0, 150.0])
def test_level_law_switches_at_first_candidate_for_urban_links(ue_height):
    los_step_levels(URBAN, 30.0, ue_height, 600)
    assert los_exact_steps(URBAN, 30.0, ue_height) == 512


def test_step_table_without_valid_law_stays_exact_to_4000(monkeypatch):
    # A law off by 1e-12 in the log fails validation at every switch: the
    # table keeps exact blocker products to step 4,000 and refuses past it.
    law = channel._level_law
    monkeypatch.setattr(channel, "_level_law", lambda *args: (
        lambda k, exact=law(*args): exact(k) * (1.0 + 1e-12)))
    _los_levels_exact.cache_clear()
    try:
        levels = los_step_levels(URBAN, 30.0, 60.0, 4000)
        assert los_exact_steps(URBAN, 30.0, 60.0) == 4000
        for k in (513, 1025, 2049, 4000):
            h = 30.0 + (np.arange(k) + 0.5) * 30.0 / k
            assert levels[k] == np.prod(
                -np.expm1(-h * h / (2.0 * URBAN.height_scale ** 2)))
        with pytest.raises(QuadratureError,
                           match="asymptotics failed validation") as err:
            los_step_levels(URBAN, 30.0, 60.0, 4001)
        mismatch = err.value.diagnostics["log_mismatch"]
        assert sorted(mismatch) == [512, 1024, 2048, 4000]
        assert min(mismatch.values()) > 1e-13
    finally:
        _los_levels_exact.cache_clear()


def test_los_step_levels_long_table_follows_log_product():
    levels = los_step_levels(URBAN, 30.0, 60.0, 4200)
    for k in (4001, 4100, 4200):
        assert_allclose(math.log(levels[k]),
                        _log_blocker_product(URBAN, 30.0, 60.0, k),
                        rtol=1e-10)


@pytest.mark.parametrize("bs_height", [10.0, 25.0, 30.0])
def test_los_step_levels_long_table_for_ground_user(bs_height):
    # The exact product underflows long before the switch to asymptotics;
    # the switch must still validate and continue the exact table.
    exact = los_step_levels(URBAN, bs_height, 1.5, 4000)
    levels = los_step_levels(URBAN, bs_height, 1.5, 4097)
    assert levels.size == 4098
    assert np.array_equal(levels[:4001], exact)
    assert np.all(levels[4001:] >= 0.0)
    assert np.all(np.diff(levels) <= 0.0)
    assert _log_blocker_product(URBAN, bs_height, 1.5, 4000) < -745.0


def test_los_step_levels_long_table_for_user_at_ground_level():
    # A link ending at height 0 has no asymptotic form, but its exact
    # product has underflowed long before the switch, so the table and
    # the scalar probability continue with 0.
    levels = los_step_levels(URBAN, 30.0, 0.0, 4100)
    assert levels[4000] == 0.0 and np.all(levels[4001:] == 0.0)
    r = 4050.5 * los_step_width(URBAN)
    assert _los_level(r, 30.0, 0.0, URBAN) == 0.0


def test_environment_validation():
    with pytest.raises(DomainError):
        EnvironmentParams(1.5, 500.0, 15.0)
    with pytest.raises(DomainError):
        EnvironmentParams(0.3, -1.0, 15.0)
    with pytest.raises(DomainError):
        EnvironmentParams(0.3, 500.0, 0.0)


# -------------------------------------------------------------- antenna gain

def test_antenna_gain_levels():
    # Drone above the base station: a downtilted beam never points at it.
    assert np.all(antenna_gain_curve([1.0, 50.0, 500.0], 30.0, 60.0, PATTERN)
                  == PATTERN.gain_side)
    # Ground user at the cell edge of the beam footprint.
    assert antenna_gain_curve(50.0, 30.0, 0.0, PATTERN) == 10.0
    assert antenna_gain_curve(20.0, 30.0, 0.0, PATTERN) == 0.5
    assert antenna_gain_curve(200.0, 30.0, 0.0, PATTERN) == 0.5


def test_antenna_gain_inclusive_edges():
    # At exactly the half-beamwidth angle the main lobe still applies.
    upper = AntennaPattern(40.0, 30.0, 10.0, 0.5)
    gap = 30.0
    r_edge = gap / math.tan(math.radians(50.0))
    assert antenna_gain_curve(r_edge, 30.0, 0.0, upper) == 10.0


def test_antenna_gain_matches_curve_at_lobe_edges():
    # Each finite main-lobe edge and its neighbouring floats, over the
    # figure3 station heights, user heights 0-300 m and tilts -30..45 deg:
    # the edges are inclusive, so the main gain holds at the edge and on
    # its inner neighbour, and the side gain on its outer one.
    probes = 0
    for tilt in np.arange(-30.0, 46.0, 5.0):
        pattern = AntennaPattern(40.0, float(tilt), 10.0, 0.5)
        for bs in np.arange(10.0, 151.0, 10.0):
            for ue in np.arange(0.0, 301.0, 10.0):
                lobe = main_lobe_interval(bs, ue, pattern)
                for edge, inward in zip(lobe or (), (math.inf, -math.inf)):
                    if not math.isfinite(edge):
                        continue
                    inner, outer = np.nextafter(edge, [inward, -inward])
                    n = 3 if outer >= 0.0 else 2
                    probes += n
                    assert antenna_gain_curve([inner, edge, outer][:n], bs,
                                              ue, pattern).tolist() == [
                        10.0, 10.0, 0.5][:n]
    assert probes > 5000


def test_gain_switch_radii_ground_user():
    radii = gain_switch_radii(30.0, 0.0, PATTERN)
    assert_allclose(radii, [25.1729889353184, 170.1384545885313], rtol=1e-13)
    # Distances just inside/outside each switch agree with the pointwise gain.
    for r, expect in [(25.0, 0.5), (25.3, 10.0), (170.0, 10.0), (170.3, 0.5)]:
        assert antenna_gain_curve(r, 30.0, 0.0, PATTERN) == expect


def test_gain_switch_radii_empty_for_high_user():
    assert gain_switch_radii(30.0, 60.0, PATTERN) == []
    assert main_lobe_interval(30.0, 60.0, PATTERN) is None


def test_main_lobe_interval_equal_heights():
    level = AntennaPattern(40.0, 0.0, 10.0, 0.5)
    assert main_lobe_interval(25.0, 25.0, level) == (0.0, math.inf)
    tilted = AntennaPattern(40.0, 30.0, 10.0, 0.5)
    assert main_lobe_interval(25.0, 25.0, tilted) is None


def test_main_lobe_interval_uptilt_reaches_drone():
    up = AntennaPattern(beamwidth_deg=20.0, downtilt_deg=-30.0,
                        gain_main=10.0, gain_side=0.5)
    lo, hi = main_lobe_interval(30.0, 90.0, up)
    assert_allclose(lo, 60.0 / math.tan(math.radians(40.0)), rtol=1e-13)
    assert_allclose(hi, 60.0 / math.tan(math.radians(20.0)), rtol=1e-13)
    mid = 0.5 * (lo + hi)
    assert antenna_gain_curve(mid, 30.0, 90.0, up) == 10.0


def test_pattern_validation():
    with pytest.raises(DomainError):
        AntennaPattern(0.0, 30.0, 10.0, 0.5)
    with pytest.raises(DomainError):
        AntennaPattern(40.0, 100.0, 10.0, 0.5)
    with pytest.raises(DomainError):
        AntennaPattern(40.0, 30.0, 10.0, 0.0)


# ------------------------------------------------------------------- params

def test_channel_params_validation():
    with pytest.raises(DomainError):
        ChannelParams(0.0, 3.75, 1e-4, 5e-4, 3, 1)
    with pytest.raises(DomainError):
        ChannelParams(2.09, 3.75, 1e-4, 5e-4, 0, 1)
    with pytest.raises(DomainError):
        ChannelParams(2.09, 3.75, 1e-4, 5e-4, 1.5, 1)
